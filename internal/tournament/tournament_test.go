package tournament

import (
	"math"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Selector {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewDefaultsAndValidation(t *testing.T) {
	s := mustNew(t, Config{Experts: 3})
	cfg := s.Config()
	if cfg.CounterBits != 3 || cfg.ContextBits != 6 || cfg.SignatureLen != 4 || cfg.Warmup != 8 {
		t.Errorf("defaults = %+v", cfg)
	}
	if s.max != 7 || s.mid != 4 {
		t.Errorf("3-bit counters: max=%d mid=%d, want 7/4", s.max, s.mid)
	}
	for _, bad := range []Config{
		{Experts: 0},
		{Experts: 3, CounterBits: 9},
		{Experts: 3, CounterBits: -1},
		{Experts: 3, ContextBits: 17},
		{Experts: 3, SignatureLen: 65},
		{Experts: 3, Warmup: -1},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v) accepted", bad)
		}
	}
}

func TestColdSelectorPicksLowestIndex(t *testing.T) {
	s := mustNew(t, Config{Experts: 4})
	if got := s.Select(); got != 0 {
		t.Errorf("cold selection = %d, want 0 (deterministic tie-break)", got)
	}
	if c := s.normalize(s.table()[0]); c != 0.5 {
		t.Errorf("cold confidence = %g, want 0.5 (midpoint)", c)
	}
}

func TestTracksConsistentlyBestExpert(t *testing.T) {
	s := mustNew(t, Config{Experts: 3})
	// Expert 2 is always closest to the actual.
	for i := 0; i < 20; i++ {
		v := float64(i)
		s.Observe([]float64{v + 5, v + 2, v + 0.1}, v)
	}
	if got := s.Select(); got != 2 {
		t.Errorf("selection = %d after 20 wins by expert 2, want 2", got)
	}
	if c := s.normalize(s.table()[2]); c != 1 {
		t.Errorf("confidence = %g after saturation, want 1", c)
	}
}

func TestTieBreaksToLowestIndex(t *testing.T) {
	s := mustNew(t, Config{Experts: 3})
	// Experts 1 and 2 tie exactly on every observation; both saturate.
	for i := 0; i < 20; i++ {
		v := float64(i)
		s.Observe([]float64{v + 5, v + 1, v + 1}, v)
	}
	if got := s.Select(); got != 1 {
		t.Errorf("selection = %d with experts 1 and 2 tied, want 1", got)
	}
}

// TestContextSwitchesSelection is the point of the context tables: two
// regimes with opposite best experts, distinguishable by their delta
// signature, must select differently once both contexts are warm.
func TestContextSwitchesSelection(t *testing.T) {
	s := mustNew(t, Config{Experts: 2, Warmup: 4})
	up := func(v float64) []float64 { return []float64{v + 0.1, v + 5} }   // expert 0 wins rising
	down := func(v float64) []float64 { return []float64{v + 5, v + 0.1} } // expert 1 wins falling
	v := 0.0
	// Interleave rising and falling regimes, long enough that each regime's
	// steady-state context passes warm-up.
	for round := 0; round < 6; round++ {
		for i := 0; i < 25; i++ {
			v += 1
			s.Observe(up(v), v)
		}
		for i := 0; i < 25; i++ {
			v -= 1
			s.Observe(down(v), v)
		}
	}
	// End of a falling run: the falling-regime context should be live.
	if got := s.Select(); got != 1 {
		t.Errorf("selection in falling regime = %d, want 1", got)
	}
	// Re-enter the rising regime and give the signature time to refill.
	for i := 0; i < 6; i++ {
		v += 1
		s.Observe(up(v), v)
	}
	if got := s.Select(); got != 0 {
		t.Errorf("selection back in rising regime = %d, want 0", got)
	}
}

func TestNonFiniteInputs(t *testing.T) {
	s := mustNew(t, Config{Experts: 2})
	before := s.State()
	// Non-finite actual: skipped entirely.
	s.Observe([]float64{1, 2}, math.NaN())
	s.Observe([]float64{1, 2}, math.Inf(1))
	// Wrong arity: skipped.
	s.Observe([]float64{1}, 1)
	if s.observations != 0 {
		t.Fatalf("non-scorable observations were folded: %d", s.observations)
	}
	after := s.State()
	if len(after.Global) != len(before.Global) || after.Obs != before.Obs {
		t.Fatal("skipped observations mutated state")
	}
	// A non-finite prediction is a loss for that expert.
	for i := 0; i < 6; i++ {
		s.Observe([]float64{math.NaN(), 1}, 1)
	}
	if got := s.Select(); got != 1 {
		t.Errorf("selection = %d with expert 0 returning NaN, want 1", got)
	}
	if s.global[0] != 0 {
		t.Errorf("NaN expert's counter = %d, want decremented to 0", s.global[0])
	}
}

func TestSaturationBounds(t *testing.T) {
	s := mustNew(t, Config{Experts: 2, CounterBits: 2})
	for i := 0; i < 50; i++ {
		s.Observe([]float64{1, 100}, 1)
	}
	if s.global[0] != 3 || s.global[1] != 0 {
		t.Errorf("counters = %d/%d after 50 one-sided wins, want 3/0 (2-bit saturation)", s.global[0], s.global[1])
	}
}

func TestResetRestoresColdState(t *testing.T) {
	s := mustNew(t, Config{Experts: 2})
	for i := 0; i < 30; i++ {
		s.Observe([]float64{1, float64(i)}, 1)
	}
	s.SetTag(3)
	s.Reset()
	fresh := mustNew(t, Config{Experts: 2})
	if got, want := s.State(), fresh.State(); !statesEqual(got, want) {
		t.Errorf("Reset state != fresh state:\n%+v\n%+v", got, want)
	}
}

func statesEqual(a, b State) bool {
	ab, err1 := a.Encode()
	bb, err2 := b.Encode()
	if err1 != nil || err2 != nil {
		return false
	}
	return string(ab) == string(bb)
}

func TestSelectAndObserveAllocationFree(t *testing.T) {
	s := mustNew(t, Config{Experts: 3})
	preds := []float64{1, 2, 3}
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		v += 0.5
		preds[0], preds[1], preds[2] = v+0.1, v+0.2, v-0.4
		_ = s.Select()
		s.Observe(preds, v)
	})
	if allocs != 0 {
		t.Errorf("Select+Observe allocates %.1f/op, want 0", allocs)
	}
}
