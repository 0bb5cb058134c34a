package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/acis-lab/larpredictor/internal/engine"
)

// The forecast-history store backs the read path's range queries and the
// subscription feed: per stream, a raw ring of recent forecast-vs-actual
// pairs plus consolidated coarser tiers, following internal/rrd's
// round-robin-archive model (a fixed number of raw points per row, rows in
// a fixed-length ring) — but keyed by sample count instead of wall-clock
// seconds, because sample TS tags are opaque to the engine.
//
// Each recorded step pairs the observation with the forecast that targeted
// it (issued at the previous step), which is the comparison operators
// actually plot, and also keeps the forecast issued at the step so the
// subscription feed can replay complete events from the ring.
//
// The raw ring keeps each step compact (rawEntry): the step counter follows
// from the ring position and the targeting forecast from the steps before
// it, so the full HistoryEntry is rebuilt only on read. Every ring grows on
// demand, doubling up to its configured length, so a new or short-lived
// stream holds only the history it has. Once a stream's rings reach their
// configured length, Record is zero-allocation. Writers are the engine's
// shard workers (one per stream); readers are HTTP handlers. A per-stream
// mutex covers both.

// HistoryEntry is one raw step in a stream's forecast history. It is also
// a wire type: history range responses and SSE backfills serve it as JSON,
// and the snapshot/handoff paths persist it.
type HistoryEntry struct {
	// Seq is the stream's 1-based step counter — the subscription feed's
	// resume cursor. It is rebuilt identically by snapshot restore + WAL
	// replay, so Last-Event-ID resume survives a crash.
	Seq uint64 `json:"seq"`
	// TS is the sample's caller timestamp tag, carried through untouched.
	TS int64 `json:"ts"`
	// Actual is the observed value folded in at this step.
	Actual float64 `json:"actual"`
	// Pred, Std, and Expert describe the forecast that targeted this
	// observation — issued at the previous step — valid when HasPred.
	Pred    float64 `json:"predicted,omitempty"`
	Std     float64 `json:"predicted_std,omitempty"`
	Expert  string  `json:"expert,omitempty"`
	HasPred bool    `json:"has_predicted,omitempty"`
	// Next, NextStd, and NextExpert describe the forecast issued at this
	// step (targeting the next observation), valid when HasNext.
	Next       float64 `json:"forecast,omitempty"`
	NextStd    float64 `json:"forecast_std,omitempty"`
	NextExpert string  `json:"forecast_expert,omitempty"`
	HasNext    bool    `json:"has_forecast,omitempty"`
}

// HistoryRow is one consolidated row: Count raw steps collapsed into
// actual avg/min/max, mean forecast, and mean absolute forecast error,
// attributed to the expert that produced the most forecasts in the bucket.
type HistoryRow struct {
	// StartTS and EndTS bound the row's raw steps (first and last TS tag).
	StartTS int64 `json:"start_ts"`
	EndTS   int64 `json:"end_ts"`
	// StartSeq and EndSeq bound the row's raw steps by step counter.
	StartSeq uint64 `json:"start_seq"`
	EndSeq   uint64 `json:"end_seq"`
	// Count is how many raw steps the row consolidates; Predicted how many
	// of them had a targeting forecast.
	Count     int     `json:"count"`
	Predicted int     `json:"predicted,omitempty"`
	ActualAvg float64 `json:"actual_avg"`
	ActualMin float64 `json:"actual_min"`
	ActualMax float64 `json:"actual_max"`
	// PredAvg and AbsErrAvg aggregate over the Predicted steps only.
	PredAvg   float64 `json:"pred_avg,omitempty"`
	AbsErrAvg float64 `json:"abs_err_avg,omitempty"`
	// Expert is the modal expert over the row's forecasts.
	Expert string `json:"expert,omitempty"`
}

// HistoryTier declares one consolidated tier: every Steps raw entries
// collapse into one row, kept in a ring of Rows rows (mirroring an rrd
// RRASpec's Steps/Rows, with consolidation fixed to avg/min/max).
type HistoryTier struct {
	Steps int
	Rows  int
}

// HistoryConfig shapes a HistoryStore.
type HistoryConfig struct {
	// RawRows is the raw ring's capacity in steps. Default 512.
	RawRows int
	// Tiers are the consolidated tiers, finest first. Default
	// {16, 360}, {256, 360} — with the default raw ring that spans
	// 512 + 16·360 + 256·360 ≈ 98k steps per stream.
	Tiers []HistoryTier
}

// DefaultHistoryTiers is the tier layout used when HistoryConfig.Tiers is
// empty.
var DefaultHistoryTiers = []HistoryTier{{Steps: 16, Rows: 360}, {Steps: 256, Rows: 360}}

func (c HistoryConfig) withDefaults() (HistoryConfig, error) {
	if c.RawRows == 0 {
		c.RawRows = 512
	}
	if c.RawRows < 1 {
		return c, fmt.Errorf("server: history raw rows %d < 1", c.RawRows)
	}
	if len(c.Tiers) == 0 {
		c.Tiers = append([]HistoryTier(nil), DefaultHistoryTiers...)
	}
	prev := 1
	for _, t := range c.Tiers {
		if t.Steps <= prev || t.Rows < 1 {
			return c, fmt.Errorf("server: history tier %+v: steps must increase (> %d) and rows be positive", t, prev)
		}
		prev = t.Steps
	}
	return c, nil
}

// reset empties the bucket for its next row, keeping Experts' array.
func (b *HistoryBucketState) reset() {
	b.Count, b.Predicted = 0, 0
	b.StartTS, b.EndTS, b.StartSeq, b.EndSeq = 0, 0, 0, 0
	b.ActualSum, b.PredSum, b.AbsErrSum = 0, 0, 0
	b.ActualMin, b.ActualMax = 0, 0
	b.Experts = b.Experts[:0]
}

// add folds in step seq, e, targeted by forecast f.
func (b *HistoryBucketState) add(seq uint64, e *rawEntry, f *forecast) {
	if b.Count == 0 {
		b.StartTS, b.StartSeq = e.TS, seq
		b.ActualMin, b.ActualMax = e.Actual, e.Actual
	} else {
		if e.Actual < b.ActualMin {
			b.ActualMin = e.Actual
		}
		if e.Actual > b.ActualMax {
			b.ActualMax = e.Actual
		}
	}
	b.Count++
	b.EndTS, b.EndSeq = e.TS, seq
	b.ActualSum += e.Actual
	if f.HasPred {
		b.Predicted++
		b.PredSum += f.Pred
		b.AbsErrSum += math.Abs(f.Pred - e.Actual)
		found := false
		for i := range b.Experts {
			if b.Experts[i].Name == f.Expert {
				b.Experts[i].Count++
				found = true
				break
			}
		}
		if !found {
			b.Experts = append(b.Experts, HistoryExpertCount{Name: f.Expert, Count: 1})
		}
	}
}

// row flattens the accumulator into a consolidated row.
func (b *HistoryBucketState) row() HistoryRow {
	r := HistoryRow{
		StartTS: b.StartTS, EndTS: b.EndTS,
		StartSeq: b.StartSeq, EndSeq: b.EndSeq,
		Count: b.Count, Predicted: b.Predicted,
		ActualMin: b.ActualMin, ActualMax: b.ActualMax,
	}
	if b.Count > 0 {
		r.ActualAvg = b.ActualSum / float64(b.Count)
	}
	if b.Predicted > 0 {
		r.PredAvg = b.PredSum / float64(b.Predicted)
		r.AbsErrAvg = b.AbsErrSum / float64(b.Predicted)
	}
	best := -1
	for i := range b.Experts {
		if best < 0 || b.Experts[i].Count > b.Experts[best].Count {
			best = i
		}
	}
	if best >= 0 {
		r.Expert = b.Experts[best].Name
	}
	return r
}

// ring is a FIFO of at most max items that grows on demand: its backing
// slice doubles as it fills, up to exactly max, and from then on each push
// overwrites the oldest item.
type ring[T any] struct {
	buf    []T
	head   int // next write slot
	filled int
	max    int
}

// minRingLen is the first allocation of an empty ring (clamped to max).
const minRingLen = 4

// push appends *v, overwriting the oldest item when the ring is full.
func (r *ring[T]) push(v *T) {
	if r.filled == len(r.buf) && len(r.buf) < r.max {
		// A ring below max grows only when full, so its items run from
		// head round to head-1; lay them out oldest first.
		buf := make([]T, min(max(2*len(r.buf), minRingLen), r.max))
		n := copy(buf, r.buf[r.head:])
		copy(buf[n:], r.buf[:r.head])
		r.buf, r.head = buf, r.filled
	}
	if r.filled < len(r.buf) {
		r.filled++
	}
	r.buf[r.head] = *v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// at returns the i-th oldest item, 0 <= i < filled.
func (r *ring[T]) at(i int) *T {
	j := r.head - r.filled + i
	if j < 0 {
		j += len(r.buf)
	}
	return &r.buf[j]
}

// load replaces the ring's contents with the newest max of items, oldest
// first, sized to exactly what it keeps.
func (r *ring[T]) load(items []T) {
	if len(items) > r.max {
		items = items[len(items)-r.max:]
	}
	r.buf = append([]T(nil), items...)
	r.head, r.filled = 0, len(items)
}

// historyTier is one consolidated tier's runtime state: a row ring plus the
// open bucket.
type historyTier struct {
	steps  int
	rows   ring[HistoryRow]
	bucket HistoryBucketState
}

// forecast is one issued forecast, valid when HasPred; its fields match
// HistoryState.Pending's.
type forecast struct {
	Pred    float64
	Std     float64
	Expert  string
	HasPred bool
}

// carry advances f, the forecast pending before step e, past it: a step
// that issued a forecast replaces f, and a failed step leaves it.
func (f *forecast) carry(e *rawEntry) {
	if e.HasNext {
		*f = forecast{Pred: e.Next, Std: e.NextStd, Expert: e.NextExpert, HasPred: true}
	}
}

// rawEntry is one raw step as the ring keeps it: the observation and the
// forecast issued at the step. The rest of its HistoryEntry follows from
// its neighbours: Seq from the ring position, and the targeting forecast
// (Pred, Std, Expert, HasPred) is the last one issued before the step.
type rawEntry struct {
	TS         int64
	Actual     float64
	Next       float64
	NextStd    float64
	NextExpert string
	HasNext    bool
}

// expand rebuilds the full entry for step seq, targeted by f.
func (e *rawEntry) expand(seq uint64, f *forecast) HistoryEntry {
	return HistoryEntry{
		Seq: seq, TS: e.TS, Actual: e.Actual,
		Pred: f.Pred, Std: f.Std, Expert: f.Expert, HasPred: f.HasPred,
		Next: e.Next, NextStd: e.NextStd, NextExpert: e.NextExpert, HasNext: e.HasNext,
	}
}

// streamHistory is one stream's full history state.
type streamHistory struct {
	mu  sync.Mutex
	seq uint64

	// raw holds steps seq-filled+1 .. seq; first is the forecast that
	// targeted the oldest of them.
	raw   ring[rawEntry]
	first forecast
	// pending is the forecast issued at the newest step, waiting to be
	// paired with the next observation.
	pending forecast

	tiers []historyTier
}

// newStream returns an empty stream history shaped by the store's config;
// its rings allocate on first use.
func (h *HistoryStore) newStream() *streamHistory {
	sh := &streamHistory{
		raw:   ring[rawEntry]{max: h.cfg.RawRows},
		tiers: make([]historyTier, len(h.cfg.Tiers)),
	}
	for i, t := range h.cfg.Tiers {
		sh.tiers[i] = historyTier{steps: t.Steps, rows: ring[HistoryRow]{max: t.Rows}}
	}
	return sh
}

// HistoryStore holds every stream's forecast history. Construct with
// NewHistoryStore; wire Record into the engine's OnResult path alongside
// ResultCache.Record.
type HistoryStore struct {
	cfg HistoryConfig
	m   sync.Map // stream id -> *streamHistory

	// onAppend, when set, receives every appended raw entry on the shard
	// worker goroutine — the subscription feed's publish hook. Atomic so
	// the server can wire it after the store (and engine) already exist.
	onAppend atomic.Pointer[func(stream string, e HistoryEntry)]
}

// OnAppend installs f as the store's append hook; every recorded entry is
// delivered to it on the recording goroutine. One hook; last call wins.
func (h *HistoryStore) OnAppend(f func(stream string, e HistoryEntry)) {
	h.onAppend.Store(&f)
}

// NewHistoryStore validates cfg (zero value is serving-safe) and returns an
// empty store.
func NewHistoryStore(cfg HistoryConfig) (*HistoryStore, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &HistoryStore{cfg: cfg}, nil
}

// Config returns the store's (defaulted) configuration.
func (h *HistoryStore) Config() HistoryConfig { return h.cfg }

func (h *HistoryStore) stream(id string) *streamHistory {
	if v, ok := h.m.Load(id); ok {
		return v.(*streamHistory)
	}
	sh := h.newStream()
	if v, loaded := h.m.LoadOrStore(id, sh); loaded {
		return v.(*streamHistory)
	}
	return sh
}

// Record folds one engine result into the stream's history: the observation
// pairs with the previous step's forecast, the new forecast (when the step
// succeeded) becomes pending, and full buckets consolidate into each tier.
// Safe to call from engine.Config.OnResult; zero allocations once the
// stream's rings reach their configured length.
func (h *HistoryStore) Record(r engine.Result) {
	sh := h.stream(r.ID)
	sh.mu.Lock()
	sh.seq++
	e := rawEntry{TS: r.TS, Actual: r.Value}
	if r.Err == nil {
		e.Next, e.NextStd, e.NextExpert, e.HasNext = r.Pred.Value, r.Pred.StdEstimate, r.Pred.SelectedName, true
	}
	hook := h.onAppend.Load()
	var full HistoryEntry
	if hook != nil {
		full = e.expand(sh.seq, &sh.pending)
	}
	sh.append(&e)
	sh.mu.Unlock()
	if hook != nil {
		(*hook)(r.ID, full)
	}
}

// append writes step sh.seq into the raw ring, feeds the tier buckets, and
// makes the step's forecast pending. Callers hold sh.mu.
func (sh *streamHistory) append(e *rawEntry) {
	if sh.raw.filled == sh.raw.max {
		// The push evicts the oldest step, which targets the next one.
		sh.first.carry(sh.raw.at(0))
	}
	sh.raw.push(e)
	for i := range sh.tiers {
		t := &sh.tiers[i]
		t.bucket.add(sh.seq, e, &sh.pending)
		if t.bucket.Count >= t.steps {
			row := t.bucket.row()
			t.rows.push(&row)
			t.bucket.reset()
		}
	}
	sh.pending.carry(e)
}

// entries appends to dst the raw steps from the i-th oldest on that keep
// accepts (all when keep is nil), expanded, oldest first. Callers hold
// sh.mu.
func (sh *streamHistory) entries(dst []HistoryEntry, i int, keep func(*rawEntry) bool) []HistoryEntry {
	// The forecast targeting step i is the last one issued before it.
	f := sh.first
	for j := i - 1; j >= 0; j-- {
		if e := sh.raw.at(j); e.HasNext {
			f.carry(e)
			break
		}
	}
	seq := sh.seq - uint64(sh.raw.filled) + uint64(i)
	for ; i < sh.raw.filled; i++ {
		e := sh.raw.at(i)
		seq++
		if keep == nil || keep(e) {
			dst = append(dst, e.expand(seq, &f))
		}
		f.carry(e)
	}
	return dst
}

// Seq returns the stream's current step counter (0 for an unknown stream).
// It is the stream's read-path version: every processed sample bumps it, so
// conditional gets key their ETags on it.
func (h *HistoryStore) Seq(id string) uint64 {
	v, ok := h.m.Load(id)
	if !ok {
		return 0
	}
	sh := v.(*streamHistory)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.seq
}

// RangeQuery selects a consolidated range read.
type RangeQuery struct {
	// From and To bound rows by TS tag, inclusive; zero means unbounded.
	// A raw row matches when From <= TS <= To; a consolidated row when its
	// [StartTS, EndTS] span intersects [From, To].
	From, To int64
	// HasFrom / HasTo distinguish "0" from "unset".
	HasFrom, HasTo bool
	// Step selects the resolution in raw steps per returned row: <= 1
	// serves the raw ring; otherwise the finest tier with Steps >= Step
	// (or the coarsest tier when Step exceeds them all).
	Step int
	// Limit caps returned rows, keeping the newest; <= 0 means no cap.
	Limit int
}

// RangeResult is a consolidated range read: Resolution raw steps per row,
// rows oldest-first. Raw-resolution results carry Entries; consolidated
// results carry Rows.
type RangeResult struct {
	Resolution int
	Entries    []HistoryEntry
	Rows       []HistoryRow
}

// Range serves a range query from the stream's rings. ok is false when the
// stream has no history at all.
func (h *HistoryStore) Range(id string, q RangeQuery) (RangeResult, bool) {
	v, loaded := h.m.Load(id)
	if !loaded {
		return RangeResult{}, false
	}
	sh := v.(*streamHistory)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.seq == 0 {
		return RangeResult{}, false
	}
	res := RangeResult{Resolution: 1}
	if q.Step <= 1 {
		start := 0
		var keep func(*rawEntry) bool
		if q.HasFrom || q.HasTo {
			keep = func(e *rawEntry) bool {
				return !(q.HasFrom && e.TS < q.From) && !(q.HasTo && e.TS > q.To)
			}
		} else if q.Limit > 0 && sh.raw.filled > q.Limit {
			start = sh.raw.filled - q.Limit // unfiltered: expand only the newest
		}
		res.Entries = sh.entries(nil, start, keep)
		if q.Limit > 0 && len(res.Entries) > q.Limit {
			res.Entries = res.Entries[len(res.Entries)-q.Limit:]
		}
		return res, true
	}
	// Pick the finest tier that consolidates at least q.Step raw rows.
	ti := len(sh.tiers) - 1
	for i := range sh.tiers {
		if sh.tiers[i].steps >= q.Step {
			ti = i
			break
		}
	}
	t := &sh.tiers[ti]
	res.Resolution = t.steps
	for i := 0; i < t.rows.filled; i++ {
		r := t.rows.at(i)
		if (q.HasFrom && r.EndTS < q.From) || (q.HasTo && r.StartTS > q.To) {
			continue
		}
		res.Rows = append(res.Rows, *r)
	}
	// The open bucket serves as a final partial row so the range reaches
	// the present even between consolidation boundaries.
	if t.bucket.Count > 0 {
		r := t.bucket.row()
		if !((q.HasFrom && r.EndTS < q.From) || (q.HasTo && r.StartTS > q.To)) {
			res.Rows = append(res.Rows, r)
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[len(res.Rows)-q.Limit:]
	}
	return res, true
}

// EntriesSince copies into dst the raw entries with Seq > after, oldest
// first — the subscription feed's backfill read. It reports the stream's
// newest seq; entries older than the ring's tail are gone (the caller sees
// the gap through the first returned Seq).
func (h *HistoryStore) EntriesSince(id string, after uint64, dst []HistoryEntry) ([]HistoryEntry, uint64) {
	v, loaded := h.m.Load(id)
	if !loaded {
		return dst, 0
	}
	sh := v.(*streamHistory)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Steps seq-filled+1 .. seq are in the ring; those after the cursor
	// are its newest seq-after.
	if after < sh.seq {
		start := 0
		if n := sh.seq - after; n < uint64(sh.raw.filled) {
			start = sh.raw.filled - int(n)
		}
		dst = sh.entries(dst, start, nil)
	}
	return dst, sh.seq
}

// ---- persistence ----

// HistoryTierState is one tier's persisted state.
type HistoryTierState struct {
	Steps  int
	Rows   []HistoryRow // oldest first
	Bucket HistoryBucketState
}

// HistoryBucketState is a tier's open bucket: the accumulator of raw steps
// toward one consolidated row. The live tier holds one, and it persists as
// is, so a restart resumes mid-bucket instead of losing the partial row.
// Experts per stream are few (the pool names plus the fallback rungs), so a
// small linear array of tallies beats a map and allocates nothing.
type HistoryBucketState struct {
	Count     int
	Predicted int
	StartTS   int64
	EndTS     int64
	StartSeq  uint64
	EndSeq    uint64
	ActualSum float64
	ActualMin float64
	ActualMax float64
	PredSum   float64
	AbsErrSum float64
	Experts   []HistoryExpertCount
}

// HistoryExpertCount is one expert's forecast count within a bucket.
type HistoryExpertCount struct {
	Name  string
	Count int
}

// clone copies b with its own Experts, so a captured or installed state
// never shares memory with a live bucket. An empty tally clones to nil, as
// the persisted state has always carried it.
func (b HistoryBucketState) clone() HistoryBucketState {
	b.Experts = append([]HistoryExpertCount(nil), b.Experts...)
	return b
}

// HistoryState is one stream's complete persisted history: the predictd
// snapshot carries it per stream, and the cluster's warm handoff ships it so
// failover replicas serve range queries without a gap.
type HistoryState struct {
	Seq     uint64
	Raw     []HistoryEntry // oldest first
	Tiers   []HistoryTierState
	Pending struct {
		Pred    float64
		Std     float64
		Expert  string
		HasPred bool
	}
}

// State captures the stream's history for persistence. ok is false when the
// stream has none.
func (h *HistoryStore) State(id string) (HistoryState, bool) {
	v, loaded := h.m.Load(id)
	if !loaded {
		return HistoryState{}, false
	}
	sh := v.(*streamHistory)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := HistoryState{Seq: sh.seq, Pending: sh.pending}
	st.Raw = sh.entries(make([]HistoryEntry, 0, sh.raw.filled), 0, nil)
	for i := range sh.tiers {
		t := &sh.tiers[i]
		ts := HistoryTierState{Steps: t.steps, Rows: make([]HistoryRow, 0, t.rows.filled)}
		for j := 0; j < t.rows.filled; j++ {
			ts.Rows = append(ts.Rows, *t.rows.at(j))
		}
		ts.Bucket = t.bucket.clone()
		st.Tiers = append(st.Tiers, ts)
	}
	return st, true
}

// Restore primes a stream's history from persisted state — the warm-restart
// and handoff install path. State captured under a different tier layout
// degrades gracefully: raw entries clamp to the current ring capacity
// (newest kept) and only tiers whose Steps match the current config keep
// their rows; mismatched tiers restart cold.
func (h *HistoryStore) Restore(id string, st HistoryState) {
	sh := h.newStream()
	sh.seq = st.Seq
	sh.pending = forecast(st.Pending)
	// Persisted entries carry their Seq and targeting forecast; the ring
	// derives both, from st.Seq and from the oldest kept entry's forecast
	// (the pending one while the ring is empty).
	sh.first = sh.pending
	raw := st.Raw
	if len(raw) > h.cfg.RawRows {
		raw = raw[len(raw)-h.cfg.RawRows:]
	}
	if len(raw) > 0 {
		e := raw[0]
		sh.first = forecast{Pred: e.Pred, Std: e.Std, Expert: e.Expert, HasPred: e.HasPred}
		sh.raw.buf = make([]rawEntry, len(raw))
		for i, e := range raw {
			sh.raw.buf[i] = rawEntry{TS: e.TS, Actual: e.Actual,
				Next: e.Next, NextStd: e.NextStd, NextExpert: e.NextExpert, HasNext: e.HasNext}
		}
		sh.raw.filled = len(raw)
	}
	for i := range sh.tiers {
		t := &sh.tiers[i]
		for _, ts := range st.Tiers {
			if ts.Steps != t.steps {
				continue
			}
			t.rows.load(ts.Rows)
			t.bucket = ts.Bucket.clone()
			break
		}
	}
	h.m.Store(id, sh)
}

// Each calls f for every stream with history. Iteration order is
// unspecified.
func (h *HistoryStore) Each(f func(id string)) {
	h.m.Range(func(k, _ any) bool {
		f(k.(string))
		return true
	})
}
