package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// fuzzInput hands out a fuzz input's bytes; past its end every byte is 0.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// pick returns a byte's worth of choice below n (n > 0).
func (in *fuzzInput) pick(n int) int { return int(in.byte()) % n }

// small returns a signed byte, for values a little off a valid one.
func (in *fuzzInput) small() int { return int(int8(in.byte())) }

// historyFuzzConfigs are the layouts FuzzHistoryRestore records under and
// restores into: the first records, and states restore into each.
var historyFuzzConfigs = []HistoryConfig{
	{RawRows: 16, Tiers: []HistoryTier{{Steps: 4, Rows: 6}, {Steps: 16, Rows: 3}}},
	{RawRows: 5, Tiers: []HistoryTier{{Steps: 4, Rows: 2}, {Steps: 8, Rows: 2}}},
	{RawRows: 64, Tiers: []HistoryTier{{Steps: 4, Rows: 30}, {Steps: 16, Rows: 9}}},
}

// damageHistory applies the operations in in to st: wrong row counts and
// predicted counts, shifted or missing rows, a Seq below the rows' ends,
// odd buckets, other tier layouts and many new names.
func damageHistory(st *HistoryState, in *fuzzInput) {
	fresh := 0
	name := func() string {
		fresh++
		return fmt.Sprintf("fuzz-%d", fresh)
	}
	for len(*in) > 0 {
		op := in.pick(13)
		var ts *HistoryTierState
		if len(st.Tiers) > 0 {
			ts = &st.Tiers[in.pick(len(st.Tiers))]
		}
		var r *HistoryRow
		if ts != nil && len(ts.Rows) > 0 {
			r = &ts.Rows[in.pick(len(ts.Rows))]
		}
		switch {
		case op == 0 && r != nil:
			r.Count += in.small()
		case op == 1 && r != nil:
			d := uint64(in.small())
			r.StartSeq += d
			r.EndSeq += d
		case op == 2 && r != nil:
			r.StartSeq += uint64(in.small())
		case op == 3:
			st.Seq -= uint64(in.byte())
		case op == 4 && ts != nil:
			ts.Bucket.Count += in.small()
		case op == 5 && ts != nil:
			ts.Bucket.StartSeq += uint64(in.small())
			ts.Bucket.EndSeq += uint64(in.small())
		case op == 6 && r != nil:
			r.Predicted += in.small()
		case op == 7 && ts != nil:
			ts.Steps += in.small()
		case op == 8 && ts != nil && len(ts.Rows) > 0:
			i := in.pick(len(ts.Rows))
			ts.Rows = append(ts.Rows[:i:i], ts.Rows[i+1:]...)
		case op == 9:
			// Many distinct names, everywhere a state keeps one.
			for n := in.pick(64) * 8; n > 0; n-- {
				switch in.pick(4) {
				case 0:
					st.Pending.Expert = name()
				case 1:
					if len(st.Raw) > 0 {
						e := &st.Raw[in.pick(len(st.Raw))]
						e.Expert, e.NextExpert = name(), name()
					}
				case 2:
					if r != nil {
						r.Expert = name()
					}
				case 3:
					if ts != nil {
						ts.Bucket.Experts = append(ts.Bucket.Experts, HistoryExpertCount{Name: name(), Count: in.small()})
					}
				}
			}
		case op == 10 && ts != nil:
			ts.Bucket.Predicted += in.small()
			if len(ts.Bucket.Experts) > 0 {
				ts.Bucket.Experts[0].Count += in.small()
			}
		case op == 11:
			st.Raw = st.Raw[:in.pick(len(st.Raw)+1)]
			if r != nil {
				r.ActualAvg, r.AbsErrAvg = math.NaN(), math.Inf(-1)
			}
		case op == 12 && ts != nil:
			// The open bucket claims more steps, still ending at Seq.
			d := in.byte()
			ts.Bucket.Count += int(d)
			ts.Bucket.EndSeq += uint64(d)
			st.Seq += uint64(d)
		}
	}
}

// FuzzHistoryRestore restores history states damaged the ways outside
// input can be (snapshot files and peers both supply HistoryState): from a
// recorded state, the input picks a layout and a sequence of damage. A
// state must restore or be refused without a panic. A refused state
// installs nothing. An accepted one reads like the differential reference
// (history_diff_test.go) restored from it, also as it keeps recording, and
// survives State → Restore → State unchanged.
func FuzzHistoryRestore(f *testing.F) {
	// Byte 0 sets how many steps are recorded, byte 1 the restore layout;
	// the rest is damage (see damageHistory).
	f.Add([]byte{40, 0})
	f.Add([]byte{3, 1})
	f.Add([]byte{200, 2})
	f.Add([]byte{90, 0, 0, 0, 0, 1})              // a row one step short
	f.Add([]byte{90, 0, 1, 1, 1, 3})              // a row shifted off the chain
	f.Add([]byte{90, 0, 3, 0, 0, 7})              // Seq below the rows' ends
	f.Add([]byte{90, 0, 8, 0, 2})                 // a gap between rows
	f.Add([]byte{90, 0, 4, 1, 0, 20})             // a bucket off the rows' end
	f.Add([]byte{90, 0, 12, 1, 0, 20})            // an open bucket of more than Steps steps
	f.Add([]byte{90, 0, 5, 0, 0, 1, 0})           // an empty bucket with seqs
	f.Add([]byte{90, 0, 5, 1, 0, 1, 0})           // a bucket off the stream's seq
	f.Add([]byte{5, 0, 3, 0, 0, 5})               // more raw steps than Seq
	f.Add([]byte{90, 0, 6, 1, 0, 100})            // more predicted steps than steps
	f.Add([]byte{90, 2, 7, 0, 0, 4})              // another tier layout
	f.Add([]byte{90, 1, 9, 1, 0, 63, 0, 1, 2, 3}) // many new names
	f.Add([]byte{90, 0, 10, 1, 0, 9, 250})        // odd tallies
	f.Add([]byte{120, 0, 11, 0, 0, 5})            // NaN and -Inf in a row
	f.Add([]byte{90, 0, 9, 0, 0, 1})              // a pending forecast the raw ring did not issue
	f.Add([]byte{0, 0, 9, 0, 0, 1})               // an invalid pending forecast with values
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		steps := int(in.byte()) * 2
		cfg := historyFuzzConfigs[in.pick(len(historyFuzzConfigs))]
		src := newHistory(t, historyFuzzConfigs[0])
		rng := rand.New(rand.NewSource(int64(steps)))
		for i := 1; i <= steps; i++ {
			src.Record(randomResult(rng, "s", i, rng.Intn(4) == 0))
		}
		st, _ := src.State("s")
		damageHistory(&st, &in)

		h := newHistory(t, cfg)
		if err := h.Restore("s", st); err != nil {
			if _, ok := h.State("s"); ok {
				t.Fatalf("refused state (%v) installed a stream", err)
			}
			return
		}
		got, ok := h.State("s")
		if !ok {
			t.Fatal("accepted state installed no stream")
		}
		// Reads match the reference's, whose restore keeps each tier
		// exactly or cold-starts it by the same rules, also once the
		// stream records on.
		ref := newRefHistory(h.Config())
		ref.restore(st)
		compareHistory(t, h, ref, "s", rng)
		for i := 1; i <= 20; i++ {
			r := randomResult(rng, "s", steps+i, rng.Intn(4) == 0)
			h.Record(r)
			ref.record(r)
		}
		compareHistory(t, h, ref, "s", rng)
		again := newHistory(t, cfg)
		if err := again.Restore("s", got); err != nil {
			t.Fatalf("restoring a state the store wrote: %v", err)
		}
		if back, _ := again.State("s"); fmt.Sprintf("%#v", back) != fmt.Sprintf("%#v", got) {
			t.Fatalf("State → Restore → State changed:\n got %#v\nwant %#v", back, got)
		}
	})
}

// TestInstallStreamTooManyNames installs a stream whose history names more
// experts than a store's name table holds. Only that stream is refused, as
// engine.ErrBadState, and nothing of it is installed; the next stream
// installs.
func TestInstallStreamTooManyNames(t *testing.T) {
	_, _, ids, src := twoRecordStream(t)
	bad := src.captured(t, ids[0]).State
	b := &bad.History.Tiers[len(bad.History.Tiers)-1].Bucket
	if b.Count == 0 {
		t.Fatal("the coarsest tier's open bucket is empty; it cannot carry a tally")
	}
	for i := 0; i < 70000; i++ {
		b.Experts = append(b.Experts, HistoryExpertCount{Name: fmt.Sprintf("expert-%d", i), Count: 1})
	}
	dst := newRecordStores(t)
	err := InstallStream(dst.eng, dst.cache, dst.hist, ids[0], bad)
	if !errors.Is(err, engine.ErrBadState) {
		t.Fatalf("install with 70,000 names: err = %v, want engine.ErrBadState", err)
	}
	if dst.eng.Do(ids[0], func(*core.Online) {}) {
		t.Error("refused stream has a predictor")
	}
	if _, ok := dst.cache.Latest(ids[0]); ok {
		t.Error("refused stream has a cache entry")
	}
	if _, ok := dst.hist.State(ids[0]); ok {
		t.Error("refused stream has history")
	}
	good := src.captured(t, ids[1])
	if err := InstallStream(dst.eng, dst.cache, dst.hist, ids[1], good.State); err != nil {
		t.Fatalf("the next stream: %v", err)
	}
	if got := dst.captured(t, ids[1]); fmt.Sprint(got.State.History) != fmt.Sprint(good.State.History) {
		t.Errorf("the next stream's history reads back differently:\n got %+v\nwant %+v", got.State.History, good.State.History)
	}
}

// TestHistoryNamesConcurrent records two streams from two goroutines, each
// bringing new expert names into the store's table as it goes, while
// readers run every read and the append hook checks every entry. Each name
// read back must be the one recorded: step s of stream w issues forecast s
// by expert historyName(w, s), so every forecast names its own expert.
func TestHistoryNamesConcurrent(t *testing.T) {
	const writers, steps = 2, 1500
	h := newHistory(t, HistoryConfig{RawRows: 32, Tiers: []HistoryTier{{Steps: 4, Rows: 8}, {Steps: 16, Rows: 4}}})
	stream := func(w int) string { return fmt.Sprintf("w%d", w) }
	// historyName is the expert of step s of stream w: a new one every
	// third step.
	historyName := func(w int, s uint64) string { return fmt.Sprintf("w%d-expert-%d", w, s/3) }
	writerOf := func(id string) int { return int(id[1] - '0') }
	checkEntry := func(id string, e HistoryEntry) error {
		w := writerOf(id)
		if e.HasNext && (e.Next != float64(e.Seq) || e.NextExpert != historyName(w, e.Seq)) {
			return fmt.Errorf("%s step %d issued %g by %q, want %d by %q", id, e.Seq, e.Next, e.NextExpert, e.Seq, historyName(w, e.Seq))
		}
		if e.HasPred && (e.Pred >= float64(e.Seq) || e.Expert != historyName(w, uint64(e.Pred))) {
			return fmt.Errorf("%s step %d targeted by %g of %q, want it by %q", id, e.Seq, e.Pred, e.Expert, historyName(w, uint64(e.Pred)))
		}
		return nil
	}
	// checkExpert checks that a row or tally over steps first..last names
	// an expert that forecast one of them. A step is targeted by the
	// forecast of the step before, or of the one before that when the step
	// before failed.
	checkExpert := func(id string, name string, first, last uint64) error {
		if name == "" {
			return nil
		}
		w := writerOf(id)
		for s := max(first, 2) - 2; s < last; s++ {
			if name == historyName(w, s) {
				return nil
			}
		}
		return fmt.Errorf("%s steps %d..%d attributed to %q", id, first, last, name)
	}
	check := func(id string) error {
		res, _ := h.Range(id, RangeQuery{})
		for _, e := range res.Entries {
			if err := checkEntry(id, e); err != nil {
				return err
			}
		}
		since, _ := h.EntriesSince(id, 0, nil)
		for _, e := range since {
			if err := checkEntry(id, e); err != nil {
				return err
			}
		}
		for _, step := range []int{4, 16} {
			res, _ := h.Range(id, RangeQuery{Step: step})
			for _, r := range res.Rows {
				if err := checkExpert(id, r.Expert, r.StartSeq, r.EndSeq); err != nil {
					return err
				}
			}
		}
		st, ok := h.State(id)
		if !ok {
			return nil
		}
		if p := st.Pending; p.HasPred && p.Expert != historyName(writerOf(id), uint64(p.Pred)) {
			return fmt.Errorf("%s pending forecast %g by %q", id, p.Pred, p.Expert)
		}
		for _, e := range st.Raw {
			if err := checkEntry(id, e); err != nil {
				return err
			}
		}
		for _, ts := range st.Tiers {
			for _, x := range ts.Bucket.Experts {
				if err := checkExpert(id, x.Name, ts.Bucket.StartSeq, ts.Bucket.EndSeq); err != nil {
					return err
				}
			}
		}
		return nil
	}
	h.OnAppend(func(id string, e HistoryEntry) {
		if err := checkEntry(id, e); err != nil {
			t.Errorf("append hook: %v", err)
		}
	})

	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for s := uint64(1); s <= steps; s++ {
				r := engine.Result{Sample: engine.Sample{ID: stream(w), TS: int64(s), Value: float64(s)}}
				if s%7 == 0 {
					r.Err = core.ErrNotReady
				} else {
					r.Pred = core.Prediction{Value: float64(s), SelectedName: historyName(w, s)}
				}
				h.Record(r)
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				for w := 0; w < writers; w++ {
					if err := check(stream(w)); err != nil {
						t.Error(err)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()
	for w := 0; w < writers; w++ {
		if err := check(stream(w)); err != nil {
			t.Error(err)
		}
	}
	if n := len(h.names.load().list); n != 1+writers*(steps/3+1) {
		t.Errorf("name table holds %d entries, want %d", n, 1+writers*(steps/3+1))
	}
}
