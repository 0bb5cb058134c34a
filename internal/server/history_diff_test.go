package server

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// refHistory is a reference for one stream's history that stores every
// field of every raw entry, as persisted state does: the HistoryStore's
// compact ring, which derives Seq and the targeting forecast, must read
// back exactly like it.
type refHistory struct {
	cfg     HistoryConfig
	seq     uint64
	raw     []HistoryEntry // oldest first, at most cfg.RawRows
	tiers   []refTier
	pending forecast
}

type refTier struct {
	steps, max int
	rows       []HistoryRow // oldest first, at most max
	bucket     HistoryBucketState
}

func newRefHistory(cfg HistoryConfig) *refHistory {
	r := &refHistory{cfg: cfg}
	for _, t := range cfg.Tiers {
		r.tiers = append(r.tiers, refTier{steps: t.Steps, max: t.Rows})
	}
	return r
}

func keepNewest[T any](s []T, n int) []T {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

func (r *refHistory) record(res engine.Result) HistoryEntry {
	r.seq++
	e := HistoryEntry{Seq: r.seq, TS: res.TS, Actual: res.Value}
	if r.pending.HasPred {
		e.Pred, e.Std, e.Expert, e.HasPred = r.pending.Pred, r.pending.Std, r.pending.Expert, true
	}
	if res.Err == nil {
		e.Next, e.NextStd, e.NextExpert, e.HasNext = res.Pred.Value, res.Pred.StdEstimate, res.Pred.SelectedName, true
		r.pending = forecast{Pred: e.Next, Std: e.NextStd, Expert: e.NextExpert, HasPred: true}
	}
	r.raw = keepNewest(append(r.raw, e), r.cfg.RawRows)
	for i := range r.tiers {
		t := &r.tiers[i]
		t.bucket.add(e.Seq, &rawEntry{TS: e.TS, Actual: e.Actual}, &forecast{Pred: e.Pred, Std: e.Std, Expert: e.Expert, HasPred: e.HasPred})
		if t.bucket.Count >= t.steps {
			t.rows = keepNewest(append(t.rows, t.bucket.row()), t.max)
			t.bucket.reset()
		}
	}
	return e
}

func (r *refHistory) rangeQuery(q RangeQuery) (RangeResult, bool) {
	if r.seq == 0 {
		return RangeResult{}, false
	}
	res := RangeResult{Resolution: 1}
	if q.Step <= 1 {
		for _, e := range r.raw {
			if (q.HasFrom && e.TS < q.From) || (q.HasTo && e.TS > q.To) {
				continue
			}
			res.Entries = append(res.Entries, e)
		}
		if q.Limit > 0 && len(res.Entries) > q.Limit {
			res.Entries = res.Entries[len(res.Entries)-q.Limit:]
		}
		return res, true
	}
	t := &r.tiers[len(r.tiers)-1]
	for i := range r.tiers {
		if r.tiers[i].steps >= q.Step {
			t = &r.tiers[i]
			break
		}
	}
	res.Resolution = t.steps
	rows := t.rows
	if t.bucket.Count > 0 {
		rows = append(append([]HistoryRow(nil), rows...), t.bucket.row())
	}
	for _, row := range rows {
		if (q.HasFrom && row.EndTS < q.From) || (q.HasTo && row.StartTS > q.To) {
			continue
		}
		res.Rows = append(res.Rows, row)
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[len(res.Rows)-q.Limit:]
	}
	return res, true
}

func (r *refHistory) entriesSince(after uint64) []HistoryEntry {
	var out []HistoryEntry
	for _, e := range r.raw {
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out
}

func (r *refHistory) state() HistoryState {
	st := HistoryState{Seq: r.seq, Raw: append(make([]HistoryEntry, 0, len(r.raw)), r.raw...), Pending: r.pending}
	for _, t := range r.tiers {
		b := t.bucket
		ts := HistoryTierState{
			Steps: t.steps,
			Rows:  append(make([]HistoryRow, 0, len(t.rows)), t.rows...),
			Bucket: HistoryBucketState{
				Count: b.Count, Predicted: b.Predicted,
				StartTS: b.StartTS, EndTS: b.EndTS,
				StartSeq: b.StartSeq, EndSeq: b.EndSeq,
				ActualSum: b.ActualSum, ActualMin: b.ActualMin, ActualMax: b.ActualMax,
				PredSum: b.PredSum, AbsErrSum: b.AbsErrSum,
			},
		}
		for _, ec := range b.Experts {
			ts.Bucket.Experts = append(ts.Bucket.Experts, HistoryExpertCount(ec))
		}
		st.Tiers = append(st.Tiers, ts)
	}
	return st
}

// restore installs st with the store's clamping rules: newest raw entries
// kept, tiers restored only where Steps match.
func (r *refHistory) restore(st HistoryState) {
	*r = *newRefHistory(r.cfg)
	r.seq = st.Seq
	r.pending = forecast(st.Pending)
	r.raw = append([]HistoryEntry(nil), keepNewest(st.Raw, r.cfg.RawRows)...)
	for i := range r.tiers {
		t := &r.tiers[i]
		for _, ts := range st.Tiers {
			if ts.Steps != t.steps {
				continue
			}
			t.rows = append([]HistoryRow(nil), keepNewest(ts.Rows, t.max)...)
			b := ts.Bucket
			t.bucket = HistoryBucketState{
				Count: b.Count, Predicted: b.Predicted,
				StartTS: b.StartTS, EndTS: b.EndTS,
				StartSeq: b.StartSeq, EndSeq: b.EndSeq,
				ActualSum: b.ActualSum, ActualMin: b.ActualMin, ActualMax: b.ActualMax,
				PredSum: b.PredSum, AbsErrSum: b.AbsErrSum,
			}
			for _, ec := range b.Experts {
				t.bucket.Experts = append(t.bucket.Experts, HistoryExpertCount(ec))
			}
			break
		}
	}
}

// compareHistory checks every read of stream id in h against ref.
func compareHistory(t *testing.T, h *HistoryStore, ref *refHistory, id string, rng *rand.Rand) {
	t.Helper()
	if got, want := h.Seq(id), ref.seq; got != want {
		t.Fatalf("Seq = %d, want %d", got, want)
	}
	steps := []int{0}
	for _, tier := range ref.cfg.Tiers {
		steps = append(steps, tier.Steps)
	}
	for _, step := range steps {
		for k := 0; k < 4; k++ {
			q := RangeQuery{Step: step}
			if k > 0 {
				lo := int64(rng.Intn(int(ref.seq)*10 + 10))
				q.HasFrom, q.From = rng.Intn(2) == 0, lo
				q.HasTo, q.To = rng.Intn(2) == 0, lo+int64(rng.Intn(60))
				q.Limit = rng.Intn(8)
			}
			got, gok := h.Range(id, q)
			want, wok := ref.rangeQuery(q)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("seq %d Range(%+v):\n got %v %+v\nwant %v %+v", ref.seq, q, gok, got, wok, want)
			}
		}
	}
	for _, after := range []uint64{0, ref.seq, ref.seq - 1, ref.seq - 3, uint64(rng.Intn(int(ref.seq) + 2))} {
		got, gseq := h.EntriesSince(id, after, nil)
		if want := ref.entriesSince(after); gseq != ref.seq || !reflect.DeepEqual(got, want) {
			t.Fatalf("seq %d EntriesSince(%d):\n got %d %+v\nwant %d %+v", ref.seq, after, gseq, got, ref.seq, want)
		}
	}
	got, ok := h.State(id)
	if want := ref.state(); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("seq %d State:\n got %+v\nwant %+v", ref.seq, got, want)
	}
}

// randomResult draws one engine result: errors come in runs, so the
// targeting forecast carries across several steps, and TS tags jitter out
// of order.
func randomResult(rng *rand.Rand, id string, step int, failing bool) engine.Result {
	r := engine.Result{Sample: engine.Sample{ID: id, TS: int64(step*10 + rng.Intn(25)), Value: rng.NormFloat64() * 10}}
	if failing {
		r.Err = core.ErrNotReady
		if rng.Intn(2) == 0 {
			r.Err = errors.New("step failed")
		}
		return r
	}
	experts := []string{"AR", "LAST", "SW_AVG", core.SourceSelector}
	r.Pred = core.Prediction{Value: rng.NormFloat64() * 10, StdEstimate: rng.Float64(), SelectedName: experts[rng.Intn(len(experts))]}
	return r
}

// TestHistoryCompactMatchesReference drives the compact store and the
// full-entry reference through the same seeded Record sequence — failures
// mixed in, raw and tier rings wrapping, tier boundaries crossed — and
// compares every read after every step, plus State → Restore round trips
// into the same, a smaller and a larger config.
func TestHistoryCompactMatchesReference(t *testing.T) {
	cfg := HistoryConfig{RawRows: 11, Tiers: []HistoryTier{{Steps: 3, Rows: 5}, {Steps: 7, Rows: 3}}}
	smaller := HistoryConfig{RawRows: 4, Tiers: []HistoryTier{{Steps: 3, Rows: 2}, {Steps: 5, Rows: 2}}}
	larger := HistoryConfig{RawRows: 32, Tiers: []HistoryTier{{Steps: 3, Rows: 9}, {Steps: 7, Rows: 8}}}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHistory(t, cfg)
		var appended HistoryEntry
		h.OnAppend(func(_ string, e HistoryEntry) { appended = e })
		ref := newRefHistory(cfg)
		failing := false
		for step := 1; step <= 120; step++ {
			if rng.Intn(5) == 0 {
				failing = !failing
			}
			r := randomResult(rng, "s", step, failing)
			h.Record(r)
			if want := ref.record(r); appended != want {
				t.Fatalf("seed %d step %d: append hook got %+v, want %+v", seed, step, appended, want)
			}
			compareHistory(t, h, ref, "s", rng)
			if step%9 != 0 {
				continue
			}
			st, _ := h.State("s")
			for _, c := range []HistoryConfig{cfg, smaller, larger} {
				rh := newHistory(t, c)
				rh.Restore("s", st)
				rref := newRefHistory(rh.Config())
				rref.restore(st)
				compareHistory(t, rh, rref, "s", rng)
				// A restored stream keeps recording like the reference.
				for i := 0; i < 5; i++ {
					r := randomResult(rng, "s", step+i+1, rng.Intn(3) == 0)
					rh.Record(r)
					rref.record(r)
				}
				compareHistory(t, rh, rref, "s", rng)
				again, _ := rh.State("s")
				rh2 := newHistory(t, c)
				rh2.Restore("s", again)
				if back, _ := rh2.State("s"); !reflect.DeepEqual(back, again) {
					t.Fatalf("seed %d step %d: State → Restore → State under %+v changed:\n got %+v\nwant %+v", seed, step, c, back, again)
				}
			}
		}
		// A state without raw entries pairs the next step with its pending
		// forecast.
		empty := ref.state()
		empty.Raw = nil
		eh, eref := newHistory(t, cfg), newRefHistory(cfg)
		eh.Restore("s", empty)
		eref.restore(empty)
		r := randomResult(rng, "s", 121, false)
		eh.Record(r)
		eref.record(r)
		compareHistory(t, eh, eref, "s", rng)
		// State persisted in the full-entry form restores to identical
		// reads and keeps recording identically.
		restored := newHistory(t, cfg)
		restored.Restore("s", ref.state())
		compareHistory(t, restored, ref, "s", rng)
		for step := 121; step <= 160; step++ {
			r := randomResult(rng, "s", step, rng.Intn(3) == 0)
			restored.Record(r)
			ref.record(r)
			compareHistory(t, restored, ref, "s", rng)
		}
	}
}
