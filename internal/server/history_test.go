package server

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// histResult builds one engine result for feeding Record directly: step i
// observes value v and (unless warming) issues forecast p for the next step.
func histResult(id string, ts int64, v float64, p float64, expert string, warming bool) engine.Result {
	r := engine.Result{Sample: engine.Sample{ID: id, TS: ts, Value: v}}
	if warming {
		r.Err = core.ErrNotReady
	} else {
		r.Pred = core.Prediction{Value: p, SelectedName: expert, StdEstimate: 0.5}
	}
	return r
}

func newHistory(t testing.TB, cfg HistoryConfig) *HistoryStore {
	t.Helper()
	h, err := NewHistoryStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHistoryConfigValidation(t *testing.T) {
	for _, bad := range []HistoryConfig{
		{RawRows: -1},
		{Tiers: []HistoryTier{{Steps: 1, Rows: 10}}},                      // steps must exceed 1
		{Tiers: []HistoryTier{{Steps: 4, Rows: 0}}},                       // rows must be positive
		{Tiers: []HistoryTier{{Steps: 16, Rows: 4}, {Steps: 8, Rows: 4}}}, // steps must increase
	} {
		if _, err := NewHistoryStore(bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	h := newHistory(t, HistoryConfig{})
	if got := h.Config(); got.RawRows != 512 || len(got.Tiers) != 2 {
		t.Errorf("defaults = %+v", got)
	}
}

// TestHistoryPairing checks that each entry carries the forecast that
// targeted it (issued the previous step) and that warm-up steps record the
// observation without one.
func TestHistoryPairing(t *testing.T) {
	h := newHistory(t, HistoryConfig{RawRows: 8, Tiers: []HistoryTier{{Steps: 4, Rows: 4}}})
	h.Record(histResult("s", 1, 10, 0, "", true))      // warming: no forecast out
	h.Record(histResult("s", 2, 11, 99, "lr", false))  // first forecast issued
	h.Record(histResult("s", 3, 12, 88, "knn", false)) // paired with 99
	h.Record(histResult("s", 4, 13, 0, "", true))      // failed step: pending survives
	h.Record(histResult("s", 5, 14, 77, "lr", false))  // paired with 88 (held through the failure)

	res, ok := h.Range("s", RangeQuery{})
	if !ok || len(res.Entries) != 5 {
		t.Fatalf("range = %+v ok=%v, want 5 raw entries", res, ok)
	}
	e := res.Entries
	if e[0].HasPred || e[1].HasPred {
		t.Errorf("steps before any forecast claim a pairing: %+v %+v", e[0], e[1])
	}
	if !e[2].HasPred || e[2].Pred != 99 || e[2].Expert != "lr" {
		t.Errorf("entry 3 = %+v, want paired with forecast 99 by lr", e[2])
	}
	if !e[3].HasPred || e[3].Pred != 88 {
		t.Errorf("entry 4 = %+v, want paired with forecast 88", e[3])
	}
	if !e[4].HasPred || e[4].Pred != 88 {
		t.Errorf("entry 5 = %+v, want pending forecast 88 held across the failed step", e[4])
	}
	if !e[2].HasNext || e[2].Next != 88 {
		t.Errorf("entry 3 outgoing forecast = %+v, want 88", e[2])
	}
	if e[3].HasNext {
		t.Errorf("failed step claims an outgoing forecast: %+v", e[3])
	}
	for i, want := range []uint64{1, 2, 3, 4, 5} {
		if e[i].Seq != want {
			t.Errorf("entry %d seq = %d, want %d", i, e[i].Seq, want)
		}
	}
}

// TestHistoryConsolidation drives enough steps to fill consolidated rows and
// checks the avg/min/max/abs-err math and modal expert attribution.
func TestHistoryConsolidation(t *testing.T) {
	h := newHistory(t, HistoryConfig{RawRows: 4, Tiers: []HistoryTier{{Steps: 4, Rows: 8}}})
	// Steps 1..9: forecasts always 10, actuals 8,12 alternating; experts
	// mostly "a" with one "b".
	for i := 1; i <= 9; i++ {
		v := 8.0
		if i%2 == 0 {
			v = 12
		}
		ex := "a"
		if i == 3 {
			ex = "b"
		}
		h.Record(histResult("s", int64(i), v, 10, ex, false))
	}
	res, ok := h.Range("s", RangeQuery{Step: 4})
	if !ok {
		t.Fatal("no history")
	}
	if res.Resolution != 4 {
		t.Fatalf("resolution = %d, want 4", res.Resolution)
	}
	// 9 steps = 2 full rows of 4 + an open bucket of 1 served as a partial
	// final row.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d (%+v), want 2 full + 1 partial", len(res.Rows), res.Rows)
	}
	r0 := res.Rows[0]
	if r0.Count != 4 || r0.StartSeq != 1 || r0.EndSeq != 4 || r0.StartTS != 1 || r0.EndTS != 4 {
		t.Errorf("row 0 bounds = %+v", r0)
	}
	if r0.ActualAvg != 10 || r0.ActualMin != 8 || r0.ActualMax != 12 {
		t.Errorf("row 0 actuals = avg %g min %g max %g, want 10/8/12", r0.ActualAvg, r0.ActualMin, r0.ActualMax)
	}
	// Steps 2..4 carry forecast 10 against actuals 12,8,12 → |err| avg 2.
	if r0.Predicted != 3 || r0.PredAvg != 10 || r0.AbsErrAvg != 2 {
		t.Errorf("row 0 forecast stats = %+v, want predicted 3 pred_avg 10 abs_err_avg 2", r0)
	}
	if r0.Expert != "a" {
		t.Errorf("row 0 expert = %q, want modal a", r0.Expert)
	}
	last := res.Rows[2]
	if last.Count != 1 || last.StartSeq != 9 {
		t.Errorf("partial row = %+v, want the single open-bucket step 9", last)
	}
}

// TestHistoryRingWrap overfills the raw ring and checks only the newest
// RawRows entries survive, oldest first.
func TestHistoryRingWrap(t *testing.T) {
	h := newHistory(t, HistoryConfig{RawRows: 4, Tiers: []HistoryTier{{Steps: 2, Rows: 3}}})
	for i := 1; i <= 10; i++ {
		h.Record(histResult("s", int64(i), float64(i), 0, "", true))
	}
	res, _ := h.Range("s", RangeQuery{})
	if len(res.Entries) != 4 {
		t.Fatalf("raw entries = %d, want ring capacity 4", len(res.Entries))
	}
	for i, e := range res.Entries {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	// Tier ring: 10 steps = 5 full rows of 2, ring keeps the newest 3, plus
	// no open bucket (10 divides evenly).
	tres, _ := h.Range("s", RangeQuery{Step: 2})
	if len(tres.Rows) != 3 || tres.Rows[0].StartSeq != 5 || tres.Rows[2].EndSeq != 10 {
		t.Errorf("tier rows = %+v, want newest 3 rows spanning seq 5..10", tres.Rows)
	}
}

func TestHistoryRangeBounds(t *testing.T) {
	h := newHistory(t, HistoryConfig{RawRows: 16, Tiers: []HistoryTier{{Steps: 4, Rows: 8}}})
	for i := 1; i <= 12; i++ {
		h.Record(histResult("s", int64(i*100), float64(i), 10, "a", false))
	}
	// Raw: from/to inclusive by TS.
	res, _ := h.Range("s", RangeQuery{From: 300, HasFrom: true, To: 500, HasTo: true})
	if len(res.Entries) != 3 || res.Entries[0].TS != 300 || res.Entries[2].TS != 500 {
		t.Errorf("raw bounded range = %+v, want TS 300..500", res.Entries)
	}
	// Limit keeps the newest.
	res, _ = h.Range("s", RangeQuery{Limit: 2})
	if len(res.Entries) != 2 || res.Entries[1].TS != 1200 {
		t.Errorf("limited range = %+v, want newest 2", res.Entries)
	}
	// Consolidated: a row matches when its span intersects the bounds.
	res, _ = h.Range("s", RangeQuery{Step: 4, From: 450, HasFrom: true, To: 450, HasTo: true})
	if len(res.Rows) != 1 || res.Rows[0].StartTS != 100 || res.Rows[0].EndTS != 400 {
		// TS 450 falls between rows; the row ending at 400 has EndTS < From,
		// the row starting at 500 has StartTS > To — neither matches. Accept
		// the empty result too, but pin the current intersect semantics.
		if len(res.Rows) != 0 {
			t.Errorf("intersect range = %+v", res.Rows)
		}
	}
	res, _ = h.Range("s", RangeQuery{Step: 4, From: 350, HasFrom: true, To: 550, HasTo: true})
	if len(res.Rows) != 2 {
		t.Errorf("spanning range = %+v, want the two rows covering TS 350..550", res.Rows)
	}
	// A step coarser than every tier selects the coarsest.
	res, _ = h.Range("s", RangeQuery{Step: 1000})
	if res.Resolution != 4 {
		t.Errorf("oversized step resolution = %d, want coarsest tier 4", res.Resolution)
	}
	// Unknown stream.
	if _, ok := h.Range("nope", RangeQuery{}); ok {
		t.Error("unknown stream reported history")
	}
}

func TestHistoryEntriesSince(t *testing.T) {
	h := newHistory(t, HistoryConfig{RawRows: 4, Tiers: []HistoryTier{{Steps: 8, Rows: 2}}})
	for i := 1; i <= 6; i++ {
		h.Record(histResult("s", int64(i), float64(i), 0, "", true))
	}
	got, seq := h.EntriesSince("s", 4, nil)
	if seq != 6 || len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Errorf("EntriesSince(4) = %+v seq %d, want entries 5,6 of 6", got, seq)
	}
	// A cursor older than the ring's tail returns everything the ring holds;
	// the caller detects the gap from the first Seq.
	got, _ = h.EntriesSince("s", 0, got[:0])
	if len(got) != 4 || got[0].Seq != 3 {
		t.Errorf("EntriesSince(0) = %+v, want ring contents starting at seq 3", got)
	}
	if got, seq := h.EntriesSince("nope", 0, nil); len(got) != 0 || seq != 0 {
		t.Errorf("unknown stream EntriesSince = %v seq %d", got, seq)
	}
}

// TestHistoryStateRoundTrip snapshots mid-bucket, restores into a fresh
// store, and checks ranges and continued recording line up exactly with a
// store that never restarted.
func TestHistoryStateRoundTrip(t *testing.T) {
	cfg := HistoryConfig{RawRows: 8, Tiers: []HistoryTier{{Steps: 4, Rows: 4}}}
	live := newHistory(t, cfg)
	for i := 1; i <= 10; i++ { // 2 full rows + 2 steps into the open bucket
		live.Record(histResult("s", int64(i), float64(i), float64(i)+1, "a", false))
	}
	st, ok := live.State("s")
	if !ok || st.Seq != 10 || len(st.Raw) != 8 || len(st.Tiers) != 1 {
		t.Fatalf("state = seq %d raw %d tiers %d", st.Seq, len(st.Raw), len(st.Tiers))
	}
	if st.Tiers[0].Bucket.Count != 2 {
		t.Fatalf("open bucket count = %d, want 2", st.Tiers[0].Bucket.Count)
	}

	restored := newHistory(t, cfg)
	restored.Restore("s", st)
	for i := 11; i <= 12; i++ { // complete the bucket after restore
		live.Record(histResult("s", int64(i), float64(i), float64(i)+1, "a", false))
		restored.Record(histResult("s", int64(i), float64(i), float64(i)+1, "a", false))
	}
	for _, q := range []RangeQuery{{}, {Step: 4}, {Limit: 3}, {Step: 4, Limit: 2}} {
		a, aok := live.Range("s", q)
		b, bok := restored.Range("s", q)
		if aok != bok || fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("query %+v diverged:\nlive     %+v\nrestored %+v", q, a, b)
		}
	}
	if live.Seq("s") != restored.Seq("s") {
		t.Errorf("seq diverged: %d vs %d", live.Seq("s"), restored.Seq("s"))
	}
}

// TestHistoryStateSharesNoMemory: a captured state and the live open
// bucket never alias, in either direction, so a snapshot or handoff in
// flight does not change as the stream keeps recording.
func TestHistoryStateSharesNoMemory(t *testing.T) {
	cfg := HistoryConfig{RawRows: 8, Tiers: []HistoryTier{{Steps: 8, Rows: 4}}}
	record := func(h *HistoryStore, from, to int) {
		for i := from; i <= to; i++ {
			h.Record(histResult("s", int64(i), float64(i), float64(i)+1, "a", false))
		}
	}
	experts := func(st HistoryState) string { return fmt.Sprint(st.Tiers[0].Bucket.Experts) }
	live := newHistory(t, cfg)
	record(live, 1, 4)
	st, _ := live.State("s")
	want := experts(st)
	record(live, 5, 6) // the live bucket's tally grows in place
	if got := experts(st); got != want {
		t.Fatalf("captured tally changed with the live bucket: %s, want %s", got, want)
	}

	restored := newHistory(t, cfg)
	restored.Restore("s", st)
	st.Tiers[0].Bucket.Experts[0].Count = 999
	if back, _ := restored.State("s"); experts(back) != want {
		t.Fatalf("restored tally changed with the state it came from: %s, want %s", experts(back), want)
	}
	st.Tiers[0].Bucket.Experts[0].Count = 0
	record(restored, 5, 6)
	if experts(st) != "[{a 0}]" {
		t.Fatalf("state changed with the bucket restored from it: %s", experts(st))
	}
}

// TestHistoryRestoreClamps restores state captured under a bigger ring and a
// different tier layout into a smaller store: raw clamps to the newest
// entries, mismatched tiers restart cold.
func TestHistoryRestoreClamps(t *testing.T) {
	big := newHistory(t, HistoryConfig{RawRows: 16, Tiers: []HistoryTier{{Steps: 4, Rows: 8}}})
	for i := 1; i <= 12; i++ {
		big.Record(histResult("s", int64(i), float64(i), 0, "", true))
	}
	st, _ := big.State("s")

	small := newHistory(t, HistoryConfig{RawRows: 4, Tiers: []HistoryTier{{Steps: 8, Rows: 2}}})
	small.Restore("s", st)
	res, ok := small.Range("s", RangeQuery{})
	if !ok || len(res.Entries) != 4 || res.Entries[0].Seq != 9 || res.Entries[3].Seq != 12 {
		t.Errorf("clamped raw = %+v, want newest 4 (seq 9..12)", res.Entries)
	}
	if small.Seq("s") != 12 {
		t.Errorf("restored seq = %d, want 12", small.Seq("s"))
	}
	// The 8-step tier had no matching persisted tier: it must restart cold
	// (no rows yet) but keep consolidating from here.
	tres, _ := small.Range("s", RangeQuery{Step: 8})
	if len(tres.Rows) != 0 {
		t.Errorf("mismatched tier restored rows: %+v", tres.Rows)
	}
}

// TestHistoryRecordZeroAlloc pins the steady-state allocation contract:
// Record on a warmed-up stream allocates nothing.
func TestHistoryRecordZeroAlloc(t *testing.T) {
	h := newHistory(t, HistoryConfig{RawRows: 64, Tiers: []HistoryTier{{Steps: 8, Rows: 8}}})
	for i := 1; i <= 100; i++ { // warm up: ring allocated, expert known
		h.Record(histResult("s", int64(i), float64(i), 10, "a", false))
	}
	n := 0
	avg := testing.AllocsPerRun(1000, func() {
		n++
		h.Record(histResult("s", int64(100+n), 5, 10, "a", false))
	})
	if avg != 0 {
		t.Errorf("Record allocates %.2f objects per call in steady state, want 0", avg)
	}
}

// TestHistoryTierBoundarySelection pins the tier-selection rule at its
// boundaries: a step exactly equal to a tier's resolution must pick that
// tier (not the next coarser one), steps between tiers round up to the
// next coarser tier, and steps beyond the coarsest tier fall back to it.
func TestHistoryTierBoundarySelection(t *testing.T) {
	h := newHistory(t, HistoryConfig{
		RawRows: 16,
		Tiers:   []HistoryTier{{Steps: 4, Rows: 8}, {Steps: 32, Rows: 8}},
	})
	for i := 1; i <= 9; i++ {
		h.Record(histResult("s", int64(i), float64(i), 0, "", true))
	}
	cases := []struct {
		name string
		step int
		want int // resolution; 1 means the raw ring
	}{
		{"zero step serves raw", 0, 1},
		{"step one serves raw", 1, 1},
		{"below finest rounds up", 2, 4},
		{"exactly finest picks finest", 4, 4},
		{"just above finest picks next", 5, 32},
		{"exactly coarsest picks coarsest", 32, 32},
		{"beyond coarsest clamps to coarsest", 33, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, ok := h.Range("s", RangeQuery{Step: tc.step})
			if !ok {
				t.Fatal("no history")
			}
			if res.Resolution != tc.want {
				t.Fatalf("Step %d resolved to resolution %d, want %d", tc.step, res.Resolution, tc.want)
			}
			if tc.want == 1 {
				if len(res.Entries) != 9 || len(res.Rows) != 0 {
					t.Fatalf("raw read returned %d entries / %d rows, want 9 / 0", len(res.Entries), len(res.Rows))
				}
			} else if len(res.Entries) != 0 {
				t.Fatalf("consolidated read leaked %d raw entries", len(res.Entries))
			}
		})
	}

	// Boundary reads must include the open partial bucket. Tier 4 holds two
	// full rows plus the open bucket of one; tier 32 has consolidated
	// nothing yet, so its read is exactly the open bucket of all nine.
	res, _ := h.Range("s", RangeQuery{Step: 4})
	if len(res.Rows) != 3 || res.Rows[2].Count != 1 || res.Rows[2].StartSeq != 9 {
		t.Fatalf("tier 4 rows = %+v, want 2 full + open bucket of step 9", res.Rows)
	}
	res, _ = h.Range("s", RangeQuery{Step: 32})
	if len(res.Rows) != 1 || res.Rows[0].Count != 9 {
		t.Fatalf("tier 32 rows = %+v, want a single open bucket of 9 steps", res.Rows)
	}
	if res.Rows[0].StartSeq != 1 || res.Rows[0].EndSeq != 9 {
		t.Fatalf("tier 32 open bucket bounds = %+v, want seq 1..9", res.Rows[0])
	}
}

// TestHistoryStreamFootprint bounds the heap a stream's history holds, over
// many streams: after 80 steps under the benchmark's history config and the
// defaults, and with every ring at its configured length under the
// defaults. Rings grow on demand, so a young stream must not pay for its
// full configured capacity; a full default stream is about 40·512 B of raw
// steps plus 64·720 B of closed rows.
func TestHistoryStreamFootprint(t *testing.T) {
	bench := HistoryConfig{RawRows: 64, Tiers: []HistoryTier{{Steps: 16, Rows: 32}, {Steps: 256, Rows: 8}}}
	// fill records steps results into each of streams streams.
	fill := func(h *HistoryStore, streams, steps int) {
		for step := 1; step <= steps; step++ {
			for i := 0; i < streams; i++ {
				h.Record(histResult(fmt.Sprintf("vm%d/cpu", i), int64(step), float64(step), float64(step)+1, "AR", false))
			}
		}
	}
	// full is one stream's state with every default ring at its length.
	fullSrc := newHistory(t, HistoryConfig{})
	fill(fullSrc, 1, 512+256*360)
	full, _ := fullSrc.State("vm0/cpu")
	for _, tc := range []struct {
		name     string
		cfg      HistoryConfig
		streams  int
		build    func(h *HistoryStore, streams int)
		maxBytes uint64
	}{
		{"bench", bench, 1000, func(h *HistoryStore, n int) { fill(h, n, 80) }, 4500},
		{"defaults", HistoryConfig{}, 1000, func(h *HistoryStore, n int) { fill(h, n, 80) }, 7800},
		{"defaults-full", HistoryConfig{}, 100, func(h *HistoryStore, n int) {
			for i := 0; i < n; i++ {
				if err := h.Restore(fmt.Sprintf("vm%d/cpu", i), full); err != nil {
					t.Fatal(err)
				}
			}
			fill(h, n, 20) // and keep recording, closing a row
		}, 84000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h := newHistory(t, tc.cfg)
			tc.build(h, tc.streams)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(h)
			perStream := (after.HeapAlloc - before.HeapAlloc) / uint64(tc.streams)
			t.Logf("%d B per stream", perStream)
			if perStream > tc.maxBytes {
				t.Errorf("%d heap bytes per stream, want <= %d", perStream, tc.maxBytes)
			}
		})
	}
	runtime.KeepAlive(full)
}
