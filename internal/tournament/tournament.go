// Package tournament implements a branch-predictor-style meta-selector over
// a pool of prediction experts: every expert carries a saturating confidence
// counter updated on each observation from its instantaneous error, and a
// context hash over a recent regime signature indexes fixed-size per-context
// choice tables with a global fallback table. Selection is O(1) per step,
// allocation-free, and never retrains — the branch-prediction answer to the
// same choose-an-expert problem the paper's k-NN classifier solves with
// periodic retraining.
//
// The design borrows the three load-bearing ideas of hardware tournament
// predictors: power-of-two table sizes indexed by a masked hash (never a
// modulo on the hot path), saturating counter arithmetic so confidence
// adapts without overflow, and updating every expert's counter on every
// observation regardless of which expert was selected.
package tournament

import (
	"errors"
	"fmt"
	"math"

	"github.com/acis-lab/larpredictor/internal/obs"
)

// ErrBadConfig is returned by New for invalid configuration.
var ErrBadConfig = errors.New("tournament: invalid configuration")

// Config parameterizes a Selector. The zero value of every field but
// Experts selects the default.
type Config struct {
	// Experts is the number of pool experts the tournament arbitrates
	// between. Required; must match the prediction slices fed to Observe.
	Experts int
	// CounterBits is the saturating confidence counter width in bits
	// (default 3, so counters run 0..7 around a midpoint of 4).
	CounterBits int
	// ContextBits is log2 of the per-context choice table count (default 6,
	// so 64 context slots). The context hash is masked to this many bits.
	ContextBits int
	// SignatureLen is the number of recent observation deltas folded into
	// the regime signature (default 4).
	SignatureLen int
	// Warmup is the number of observations a context must accumulate before
	// its choice table overrides the global fallback table (default 8).
	Warmup int
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.CounterBits == 0 {
		c.CounterBits = 3
	}
	if c.ContextBits == 0 {
		c.ContextBits = 6
	}
	if c.SignatureLen == 0 {
		c.SignatureLen = 4
	}
	if c.Warmup == 0 {
		c.Warmup = 8
	}
	return c
}

func (c Config) validate() error {
	if c.Experts < 1 {
		return fmt.Errorf("tournament: %d experts: %w", c.Experts, ErrBadConfig)
	}
	if c.CounterBits < 1 || c.CounterBits > 8 {
		return fmt.Errorf("tournament: counter width %d bits outside 1..8: %w", c.CounterBits, ErrBadConfig)
	}
	if c.ContextBits < 1 || c.ContextBits > 16 {
		return fmt.Errorf("tournament: context bits %d outside 1..16: %w", c.ContextBits, ErrBadConfig)
	}
	if c.SignatureLen < 1 || c.SignatureLen > 64 {
		return fmt.Errorf("tournament: signature length %d outside 1..64: %w", c.SignatureLen, ErrBadConfig)
	}
	if c.Warmup < 1 {
		return fmt.Errorf("tournament: warmup %d < 1: %w", c.Warmup, ErrBadConfig)
	}
	return nil
}

// Delta codes folded into the regime signature: the sign of each recent
// observation delta crossed with its magnitude relative to a running mean of
// |delta| (small = below, large = at or above).
const (
	codeZero uint8 = iota
	codeUpSmall
	codeUpLarge
	codeDownSmall
	codeDownLarge
	numCodes
)

// emaDecay is the per-observation decay of the |delta| running mean that
// splits small from large moves. ~1/32 ≈ a 22-observation half-life: slow
// enough to describe the prevailing regime, fast enough to re-bucket after
// a shift.
const emaDecay = 1.0 / 32

// Selector is the tournament meta-selector. It is stateful and not safe for
// concurrent use. Construct with New.
type Selector struct {
	cfg Config
	max uint8 // counter ceiling (2^CounterBits - 1)
	mid uint8 // counter midpoint, the cold-start confidence

	// global is the fallback choice table (one counter per expert); tables
	// holds numCtx per-context tables laid out contiguously
	// (tables[ctx*Experts+i] is expert i's counter in context ctx); seen
	// counts observations folded per context, gating table warm-up.
	global []uint8
	tables []uint8
	seen   []uint32

	// sig is the ring of recent delta codes; sigNext the write position.
	sig     []uint8
	sigNext int
	// emaAbs is the running mean of |delta| (magnitude bucket boundary);
	// prev/hasPrev track the previous finite observation.
	emaAbs  float64
	prev    float64
	hasPrev bool
	// tag is an external context byte mixed into the hash (the core layer
	// feeds the current health rung).
	tag uint8

	observations uint64

	// selections[i] counts selections of expert i; confidence exports the
	// last selection's counter confidence. Both nil when uninstrumented.
	selections []*obs.Counter
	confidence *obs.Gauge
}

// New validates cfg (after applying defaults) and returns a cold selector:
// every counter at the midpoint, every context unseen, so the first
// selection deterministically picks expert 0.
func New(cfg Config) (*Selector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	numCtx := 1 << cfg.ContextBits
	s := &Selector{
		cfg:    cfg,
		max:    uint8(1<<cfg.CounterBits - 1),
		mid:    uint8(1 << (cfg.CounterBits - 1)),
		global: make([]uint8, cfg.Experts),
		tables: make([]uint8, numCtx*cfg.Experts),
		seen:   make([]uint32, numCtx),
		sig:    make([]uint8, cfg.SignatureLen),
	}
	s.resetCounters()
	return s, nil
}

// Config returns the selector's defaulted configuration.
func (s *Selector) Config() Config { return s.cfg }

// resetCounters returns every counter to the midpoint.
func (s *Selector) resetCounters() {
	for i := range s.global {
		s.global[i] = s.mid
	}
	for i := range s.tables {
		s.tables[i] = s.mid
	}
}

// Instrument binds the selector's instruments on r: selection counts per
// expert (larpredictor_tournament_selections_total) and the confidence of
// the most recent selection (larpredictor_tournament_confidence). names must
// align with the expert pool. A nil registry leaves the selector
// uninstrumented at zero cost.
func (s *Selector) Instrument(r *obs.Registry, names []string) {
	if r == nil {
		return
	}
	vec := r.Counter("larpredictor_tournament_selections_total",
		"Tournament meta-selector decisions, by selected expert.", "expert")
	s.selections = make([]*obs.Counter, s.cfg.Experts)
	for i := 0; i < s.cfg.Experts; i++ {
		name := fmt.Sprintf("expert%d", i)
		if i < len(names) {
			name = names[i]
		}
		s.selections[i] = vec.WithLabels(name)
	}
	s.confidence = r.Gauge1("larpredictor_tournament_confidence",
		"Saturating-counter confidence of the latest tournament selection (0..1).")
}

// SetTag sets the external context byte mixed into the context hash. The
// core layer feeds its health rung, so the same delta pattern under a
// different ladder state lands in a different choice table.
func (s *Selector) SetTag(tag uint8) { s.tag = tag }

// ctxIndex hashes the regime signature (delta-code ring, oldest to newest,
// plus the external tag) into a choice table index. FNV-1a over a handful of
// bytes, masked to ContextBits — no modulo, no allocation.
func (s *Selector) ctxIndex() int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := len(s.sig)
	for i := 0; i < n; i++ {
		h ^= uint64(s.sig[(s.sigNext+i)%n])
		h *= prime64
	}
	h ^= uint64(s.tag)
	h *= prime64
	// Fold the high bits down so short signatures still spread across the
	// table, then mask.
	h ^= h >> 32
	return int(h) & (1<<s.cfg.ContextBits - 1)
}

// table returns the choice table the current context selects from: the
// per-context table once warm, the global fallback table before that.
func (s *Selector) table() []uint8 {
	ctx := s.ctxIndex()
	if s.seen[ctx] >= uint32(s.cfg.Warmup) {
		e := s.cfg.Experts
		return s.tables[ctx*e : ctx*e+e]
	}
	return s.global
}

// Select returns the pool index of the most confident expert in the current
// context (ties break to the lowest index, the deterministic rule used
// pool-wide). O(Experts) counter reads, no allocation.
func (s *Selector) Select() int {
	tbl := s.table()
	best := 0
	for i := 1; i < len(tbl); i++ {
		if tbl[i] > tbl[best] {
			best = i
		}
	}
	if s.selections != nil {
		s.selections[best].Inc()
		s.confidence.Set(s.normalize(tbl[best]))
	}
	return best
}

// normalize maps a saturating counter onto 0..1 with the midpoint pinned at
// exactly 0.5 (the cold/no-evidence level) — for odd counter ranges a plain
// counter/max would report a cold selector as biased.
func (s *Selector) normalize(c uint8) float64 {
	if c >= s.mid {
		return 0.5 + 0.5*float64(c-s.mid)/float64(s.max-s.mid)
	}
	return 0.5 * float64(c) / float64(s.mid)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Observe folds one observation: every expert whose prediction ties the
// smallest absolute error gets a saturating increment in both the global
// table and the current context's table, every other expert a decrement
// (a non-finite prediction always decrements). The regime signature then
// absorbs the observation's delta, so the context Select consults next step
// includes this step — matching the context the following Observe will
// update. A non-finite actual is skipped entirely: there is no error signal
// to score against. preds must have Config.Experts entries; allocation-free.
func (s *Selector) Observe(preds []float64, actual float64) {
	if len(preds) != s.cfg.Experts || !isFinite(actual) {
		return
	}
	// Score against the context that was live when preds were issued —
	// before this observation's delta enters the signature.
	ctx := s.ctxIndex()
	bestErr := math.Inf(1)
	for _, p := range preds {
		if !isFinite(p) {
			continue
		}
		if e := math.Abs(p - actual); e < bestErr {
			bestErr = e
		}
	}
	e := s.cfg.Experts
	ctxTbl := s.tables[ctx*e : ctx*e+e]
	for i, p := range preds {
		if isFinite(p) && math.Abs(p-actual) <= bestErr {
			s.global[i] = satInc(s.global[i], s.max)
			ctxTbl[i] = satInc(ctxTbl[i], s.max)
		} else {
			s.global[i] = satDec(s.global[i])
			ctxTbl[i] = satDec(ctxTbl[i])
		}
	}
	s.seen[ctx]++
	s.observations++
	s.foldDelta(actual)
}

// foldDelta pushes the observation's delta code into the regime signature.
func (s *Selector) foldDelta(actual float64) {
	if !s.hasPrev {
		s.prev, s.hasPrev = actual, true
		return
	}
	delta := actual - s.prev
	s.prev = actual
	abs := math.Abs(delta)
	code := codeZero
	if delta != 0 {
		large := abs >= s.emaAbs && s.emaAbs > 0
		switch {
		case delta > 0 && large:
			code = codeUpLarge
		case delta > 0:
			code = codeUpSmall
		case large:
			code = codeDownLarge
		default:
			code = codeDownSmall
		}
	}
	s.emaAbs += emaDecay * (abs - s.emaAbs)
	s.sig[s.sigNext] = code
	s.sigNext = (s.sigNext + 1) % len(s.sig)
}

// satInc and satDec are saturating counter arithmetic.
func satInc(v, max uint8) uint8 {
	if v < max {
		return v + 1
	}
	return v
}

func satDec(v uint8) uint8 {
	if v > 0 {
		return v - 1
	}
	return v
}

// Reset returns the selector to its cold state: counters at the midpoint,
// contexts unseen, signature cleared.
func (s *Selector) Reset() {
	s.resetCounters()
	for i := range s.seen {
		s.seen[i] = 0
	}
	for i := range s.sig {
		s.sig[i] = 0
	}
	s.sigNext = 0
	s.emaAbs = 0
	s.prev, s.hasPrev = 0, false
	s.tag = 0
	s.observations = 0
}
