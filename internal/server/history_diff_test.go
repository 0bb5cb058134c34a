package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// refHistory is a reference for one stream's history that stores every
// field of every raw entry, row and tally, as persisted state does, with
// its own consolidation arithmetic: the HistoryStore's compact rings, which
// derive Seq, the targeting forecast, row counts and step bounds and keep
// expert names as table indexes, must read back exactly like it.
type refHistory struct {
	cfg     HistoryConfig
	seq     uint64
	raw     []HistoryEntry // oldest first, at most cfg.RawRows
	tiers   []refTier
	pending refForecast
}

// refForecast is the reference's pending forecast, names in full.
type refForecast struct {
	Pred    float64
	Std     float64
	Expert  string
	HasPred bool
}

type refTier struct {
	steps, max int
	rows       []HistoryRow // oldest first, at most max
	bucket     refBucket
}

// refBucket is the reference's open bucket, kept in its persisted form
// with the reference's own arithmetic.
type refBucket HistoryBucketState

// add folds in step e, whose targeting forecast e carries.
func (b *refBucket) add(e HistoryEntry) {
	if b.Count == 0 {
		b.StartTS, b.StartSeq, b.ActualMin, b.ActualMax = e.TS, e.Seq, e.Actual, e.Actual
	}
	if e.Actual < b.ActualMin {
		b.ActualMin = e.Actual
	}
	if e.Actual > b.ActualMax {
		b.ActualMax = e.Actual
	}
	b.Count++
	b.EndTS, b.EndSeq = e.TS, e.Seq
	b.ActualSum += e.Actual
	if !e.HasPred {
		return
	}
	b.Predicted++
	b.PredSum += e.Pred
	b.AbsErrSum += math.Abs(e.Pred - e.Actual)
	for i := range b.Experts {
		if b.Experts[i].Name == e.Expert {
			b.Experts[i].Count++
			return
		}
	}
	b.Experts = append(b.Experts, HistoryExpertCount{Name: e.Expert, Count: 1})
}

// row consolidates the bucket as the store documents it: actual avg over
// every step, forecast mean and mean absolute error over the targeted ones,
// and the expert with the most forecasts (the first tallied on a tie).
func (b *refBucket) row() HistoryRow {
	r := HistoryRow{StartTS: b.StartTS, EndTS: b.EndTS, StartSeq: b.StartSeq, EndSeq: b.EndSeq,
		Count: b.Count, Predicted: b.Predicted, ActualMin: b.ActualMin, ActualMax: b.ActualMax}
	if b.Count > 0 {
		r.ActualAvg = b.ActualSum / float64(b.Count)
	}
	if b.Predicted > 0 {
		r.PredAvg = b.PredSum / float64(b.Predicted)
		r.AbsErrAvg = b.AbsErrSum / float64(b.Predicted)
	}
	top := 0
	for i, x := range b.Experts {
		if i == 0 || x.Count > top {
			r.Expert, top = x.Name, x.Count
		}
	}
	return r
}

// state copies the bucket as persisted; an empty tally is nil.
func (b *refBucket) state() HistoryBucketState {
	s := HistoryBucketState(*b)
	s.Experts = append([]HistoryExpertCount(nil), b.Experts...)
	return s
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
		r.pending = refForecast{Pred: e.Next, Std: e.NextStd, Expert: e.NextExpert, HasPred: true}
	}
	r.raw = keepNewest(append(r.raw, e), r.cfg.RawRows)
	for i := range r.tiers {
		t := &r.tiers[i]
		t.bucket.add(e)
		if t.bucket.Count == t.steps {
			t.rows = keepNewest(append(t.rows, t.bucket.row()), t.max)
			t.bucket = refBucket{}
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

// entriesSince returns the entries after cursor after: the newest
// seq-after steps the ring holds. That is the entries with Seq > after,
// also where restored state has taken the step counter past its wrap.
func (r *refHistory) entriesSince(after uint64) []HistoryEntry {
	if after >= r.seq {
		return nil
	}
	out := r.raw
	if n := r.seq - after; n < uint64(len(out)) {
		out = out[len(out)-int(n):]
	}
	return out
}

func (r *refHistory) state() HistoryState {
	st := HistoryState{Seq: r.seq, Raw: append(make([]HistoryEntry, 0, len(r.raw)), r.raw...)}
	st.Pending.Pred, st.Pending.Std, st.Pending.Expert, st.Pending.HasPred = r.pending.Pred, r.pending.Std, r.pending.Expert, r.pending.HasPred
	for _, t := range r.tiers {
		st.Tiers = append(st.Tiers, HistoryTierState{
			Steps:  t.steps,
			Rows:   append(make([]HistoryRow, 0, len(t.rows)), t.rows...),
			Bucket: t.bucket.state(),
		})
	}
	return st
}

// restore installs st with the store's rules: newest raw entries kept, and
// tiers restored only where Steps match and the tier could have recorded
// the state.
func (r *refHistory) restore(st HistoryState) {
	*r = *newRefHistory(r.cfg)
	r.seq = st.Seq
	// A forecast that is not valid restores without values.
	valid := func(f refForecast) refForecast {
		if !f.HasPred {
			return refForecast{}
		}
		return f
	}
	p := st.Pending
	r.pending = valid(refForecast{Pred: p.Pred, Std: p.Std, Expert: p.Expert, HasPred: p.HasPred})
	// A ring holds no more steps than the stream has taken.
	r.raw = append([]HistoryEntry(nil), keepNewest(keepNewest(st.Raw, r.cfg.RawRows), int(min(st.Seq, 1<<30)))...)
	if len(r.raw) > 0 {
		// Kept entries are replayed from the oldest one's targeting
		// forecast: each step's Seq and targeting forecast, and the
		// forecast left pending, follow from them.
		f := valid(refForecast{Pred: r.raw[0].Pred, Std: r.raw[0].Std, Expert: r.raw[0].Expert, HasPred: r.raw[0].HasPred})
		for i := range r.raw {
			e := &r.raw[i]
			e.Seq = st.Seq - uint64(len(r.raw)-1-i)
			e.Pred, e.Std, e.Expert, e.HasPred = f.Pred, f.Std, f.Expert, f.HasPred
			if e.HasNext {
				f = refForecast{Pred: e.Next, Std: e.NextStd, Expert: e.NextExpert, HasPred: true}
			}
		}
		r.pending = f
	}
	for i := range r.tiers {
		t := &r.tiers[i]
		for _, ts := range st.Tiers {
			if ts.Steps != t.steps {
				continue
			}
			if !refTierFits(st.Seq, t, ts) {
				break
			}
			t.rows = append([]HistoryRow(nil), keepNewest(ts.Rows, t.max)...)
			t.bucket = refBucket(ts.Bucket)
			t.bucket.Experts = append([]HistoryExpertCount(nil), ts.Bucket.Experts...)
			break
		}
	}
}

// refTierFits is the reference's rule for a restorable tier: an open
// bucket of fewer than steps steps that ends at seq, and kept rows of
// exactly steps steps each that run without a gap up to the bucket.
func refTierFits(seq uint64, t *refTier, ts HistoryTierState) bool {
	b := ts.Bucket
	if b.Count < 0 || b.Count >= t.steps || uint64(b.Count) > seq || b.Predicted < 0 || b.Predicted > b.Count {
		return false
	}
	if b.Count == 0 && (b.StartSeq != 0 || b.EndSeq != 0) || b.Count > 0 && (b.StartSeq+uint64(b.Count)-1 != seq || b.EndSeq != seq) {
		return false
	}
	rows := keepNewest(ts.Rows, t.max)
	next := seq - uint64(b.Count) + 1 // the step after the newest row
	for i := len(rows) - 1; i >= 0; i-- {
		row := rows[i]
		if row.Count != t.steps || row.EndSeq+1 != next || row.StartSeq > row.EndSeq ||
			row.EndSeq-row.StartSeq+1 != uint64(t.steps) || row.Predicted < 0 || row.Predicted > row.Count {
			return false
		}
		next = row.StartSeq
	}
	return true
}

// compareHistory checks every read of stream id in h against ref.
func compareHistory(t *testing.T, h *HistoryStore, ref *refHistory, id string, rng *rand.Rand) {
	t.Helper()
	if got, want := h.Seq(id), ref.seq; got != want {
		t.Fatalf("Seq = %d, want %d", got, want)
	}
	// Reads compare as printed, so NaN values restored from outside input
	// match themselves; %v prints every other float exactly.
	same := func(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }
	span := int64(min(ref.seq, 1<<30))
	steps := []int{0}
	for _, tier := range ref.cfg.Tiers {
		steps = append(steps, tier.Steps)
	}
	for _, step := range steps {
		for k := 0; k < 4; k++ {
			q := RangeQuery{Step: step}
			if k > 0 {
				lo := rng.Int63n(span*10 + 10)
				q.HasFrom, q.From = rng.Intn(2) == 0, lo
				q.HasTo, q.To = rng.Intn(2) == 0, lo+int64(rng.Intn(60))
				q.Limit = rng.Intn(8)
			}
			got, gok := h.Range(id, q)
			want, wok := ref.rangeQuery(q)
			if gok != wok || !same(got, want) {
				t.Fatalf("seq %d Range(%+v):\n got %v %+v\nwant %v %+v", ref.seq, q, gok, got, wok, want)
			}
		}
	}
	for _, after := range []uint64{0, ref.seq, ref.seq - 1, ref.seq - 3, uint64(rng.Int63n(span + 2))} {
		got, gseq := h.EntriesSince(id, after, nil)
		if want := ref.entriesSince(after); gseq != ref.seq || !same(got, want) {
			t.Fatalf("seq %d EntriesSince(%d):\n got %d %+v\nwant %d %+v", ref.seq, after, gseq, got, ref.seq, want)
		}
	}
	got, ok := h.State(id)
	if want := ref.state(); !ok || !same(got, want) {
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
	r.Pred = core.Prediction{Value: rng.NormFloat64() * 10, StdEstimate: rng.Float64(),
		SelectedName: historyExperts[rng.Intn(len(historyExperts))]}
	return r
}

// historyExperts is a roster of expert names as a stream's pool and
// fallback rungs produce them.
var historyExperts = []string{"AR", "LAST", "SW_AVG", "RUN_AVG", "MEAN", "SW_MEDIAN", "EXP_SMOOTH",
	"TENDENCY", "POLY_FIT", core.SourceTournament, core.SourceSelector, core.SourceLastResort}

// renameState returns a copy of st with every expert name passed through
// rename.
func renameState(st HistoryState, rename func(string) string) HistoryState {
	out := st
	out.Pending.Expert = rename(st.Pending.Expert)
	out.Raw = append([]HistoryEntry(nil), st.Raw...)
	for i := range out.Raw {
		out.Raw[i].Expert, out.Raw[i].NextExpert = rename(out.Raw[i].Expert), rename(out.Raw[i].NextExpert)
	}
	out.Tiers = append([]HistoryTierState(nil), st.Tiers...)
	for i := range out.Tiers {
		ts := &out.Tiers[i]
		ts.Rows = append([]HistoryRow(nil), ts.Rows...)
		for j := range ts.Rows {
			ts.Rows[j].Expert = rename(ts.Rows[j].Expert)
		}
		ts.Bucket.Experts = append([]HistoryExpertCount(nil), ts.Bucket.Experts...)
		for j := range ts.Bucket.Experts {
			ts.Bucket.Experts[j].Name = rename(ts.Bucket.Experts[j].Name)
		}
	}
	return out
}

// TestHistoryCompactMatchesReference drives the compact store and the
// full-entry reference through the same seeded Record sequence — failures
// mixed in, raw and tier rings wrapping, tier boundaries crossed — and
// compares every read after every step, plus State → Restore round trips
// into the same, a smaller and a larger config. Restored states carry
// names the target store has never seen, so they first reach its name
// table through Restore, also in the store that recorded the others.
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
			// Rename about half the experts, each the same way wherever it
			// appears, as a peer that names them differently would.
			renamed := map[string]string{"": ""}
			st = renameState(st, func(name string) string {
				if _, ok := renamed[name]; !ok {
					renamed[name] = name
					if rng.Intn(2) == 0 {
						renamed[name] = fmt.Sprintf("%s/restored-%d", name, step)
					}
				}
				return renamed[name]
			})
			rid := fmt.Sprintf("r%d", step)
			if err := h.Restore(rid, st); err != nil {
				t.Fatal(err)
			}
			rref := newRefHistory(cfg)
			rref.restore(st)
			compareHistory(t, h, rref, rid, rng)
			for _, c := range []HistoryConfig{cfg, smaller, larger} {
				rh := newHistory(t, c)
				if err := rh.Restore("s", st); err != nil {
					t.Fatal(err)
				}
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
