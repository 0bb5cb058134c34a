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
// Live history is kept compact and free of pointers. Every expert name is
// a uint16 index into the store's name table (nameTable). The raw ring
// keeps each step as a rawEntry: the step counter follows from the ring
// position and the targeting forecast from the steps before it. A closed
// tier row (row) is exactly its tier's steps long and the rows run
// contiguously up to the open bucket, so its count and step bounds follow
// from its ring position. Full HistoryEntry and HistoryRow values are
// rebuilt only on read. Every ring grows on demand, doubling up to its
// configured length, so a new or short-lived stream holds only the history
// it has. Once a stream's rings reach their configured length, Record is
// zero-allocation. Writers are the engine's shard workers (one per stream);
// readers are HTTP handlers. A per-stream mutex covers both.

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
		// A closed row keeps its forecast count in 32 bits.
		if t.Steps <= prev || uint64(t.Steps) > math.MaxUint32 || t.Rows < 1 {
			return c, fmt.Errorf("server: history tier %+v: steps must increase (> %d) up to %d and rows be positive",
				t, prev, uint64(math.MaxUint32))
		}
		prev = t.Steps
	}
	return c, nil
}

// maxNames is how many entries a name table holds: "" and 65,535 names,
// one per uint16 index.
const maxNames = math.MaxUint16 + 1

// nameTable is a HistoryStore's append-only table of expert names. Index 0
// is "". Names are added to a copy of the table under mu and the copy is
// published, so readers load the current table without locking, and an
// index read from a stream under its lock is always in the table loaded
// after it.
type nameTable struct {
	mu  sync.Mutex
	cur atomic.Pointer[names]
}

// names is one published version of a nameTable; it is never modified.
type names struct {
	list  []string          // index -> name
	index map[string]uint16 // name -> index, for every name but ""
}

func (t *nameTable) load() *names { return t.cur.Load() }

// lookup returns name's index, or false when n lacks it.
func (n *names) lookup(name string) (uint16, bool) {
	if name == "" {
		return 0, true
	}
	i, ok := n.index[name]
	return i, ok
}

// intern returns name's index, adding the name when the table lacks it. A
// name the full table cannot hold is kept as "".
func (t *nameTable) intern(name string) uint16 {
	for {
		cur := t.load()
		if i, ok := cur.lookup(name); ok {
			return i
		}
		if ok, err := t.extend(cur, []string{name}); err != nil {
			return 0
		} else if ok {
			return uint16(len(cur.list))
		}
	}
}

// extend publishes base with add appended, so add[k] gets index
// len(base.list)+k. It reports false, changing nothing, when the table is
// no longer base, and fails when add does not fit. add holds only names
// base lacks, each once.
func (t *nameTable) extend(base *names, add []string) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.load() != base {
		return false, nil
	}
	if len(base.list)+len(add) > maxNames {
		return false, fmt.Errorf("server: history holds more than %d expert names", maxNames-1)
	}
	next := &names{
		list:  append(base.list[:len(base.list):len(base.list)], add...),
		index: make(map[string]uint16, len(base.index)+len(add)),
	}
	for name, i := range base.index {
		next.index[name] = i
	}
	for k, name := range add {
		next.index[name] = uint16(len(base.list) + k)
	}
	t.cur.Store(next)
	return true, nil
}

// interner maps the names of one persisted state to indexes of a table
// version, base. A name base lacks gets the index it would have appended to
// base, and load then publishes those names at exactly those indexes.
// Neighbouring steps and rows mostly name the same expert, so the last name
// looked up short-cuts the map.
type interner struct {
	base    *names
	last    string
	lastIdx uint16
	missing []string          // names base lacks, in index order
	added   map[string]uint16 // their indexes (wrapping past the table's end)
}

func (in *interner) index(name string) uint16 {
	if name == in.last {
		return in.lastIdx
	}
	i, ok := in.base.lookup(name)
	if !ok {
		if i, ok = in.added[name]; !ok {
			if in.added == nil {
				in.missing, in.added = make([]string, 0, 16), make(map[string]uint16, 16)
			}
			i = uint16(len(in.base.list) + len(in.missing))
			in.added[name] = i
			in.missing = append(in.missing, name)
		}
	}
	in.last, in.lastIdx = name, i
	return i
}

// forecast returns a persisted forecast as the store keeps it; one that is
// not valid carries no values, as a recorded one never does.
func (in *interner) forecast(pred, std float64, expert string, valid bool) forecast {
	if !valid {
		return forecast{}
	}
	return forecast{Pred: pred, Std: std, Expert: in.index(expert), HasPred: true}
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

// fill sizes the ring to exactly n items, n <= max, and returns them,
// oldest first, for the caller to set.
func (r *ring[T]) fill(n int) []T {
	r.buf = make([]T, n)
	r.head, r.filled = 0, n
	return r.buf
}

// forecast is one issued forecast, valid when HasPred; Expert indexes the
// store's name table.
type forecast struct {
	Pred    float64
	Std     float64
	Expert  uint16
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
	NextExpert uint16
	HasNext    bool
}

// expand rebuilds the full entry for step seq, targeted by f.
func (e *rawEntry) expand(seq uint64, f *forecast, names []string) HistoryEntry {
	return HistoryEntry{
		Seq: seq, TS: e.TS, Actual: e.Actual,
		Pred: f.Pred, Std: f.Std, Expert: names[f.Expert], HasPred: f.HasPred,
		Next: e.Next, NextStd: e.NextStd, NextExpert: names[e.NextExpert], HasNext: e.HasNext,
	}
}

// row is a closed tier row as the ring keeps it. Its Count is the tier's
// steps, and its StartSeq and EndSeq follow from its ring position: the
// rows run contiguously up to the open bucket.
type row struct {
	StartTS   int64
	EndTS     int64
	ActualAvg float64
	ActualMin float64
	ActualMax float64
	PredAvg   float64
	AbsErrAvg float64
	Predicted uint32
	Expert    uint16
}

// tally is one expert's forecast count within a bucket.
type tally struct {
	Expert uint16
	Count  int
}

// bucket is a tier's open bucket: the accumulator of raw steps toward one
// row, persisted as HistoryBucketState. Its steps are the stream's newest
// Count, so its StartSeq and EndSeq follow from the stream's seq. Experts
// per stream are few (the pool names plus the fallback rungs), so a small
// linear array of tallies beats a map and allocates nothing.
type bucket struct {
	Count     int
	Predicted int
	StartTS   int64
	EndTS     int64
	ActualSum float64
	ActualMin float64
	ActualMax float64
	PredSum   float64
	AbsErrSum float64
	Experts   []tally
}

// reset empties the bucket for its next row, keeping Experts' array.
func (b *bucket) reset() {
	experts := b.Experts[:0]
	*b = bucket{Experts: experts}
}

// add folds in step e, targeted by forecast f.
func (b *bucket) add(e *rawEntry, f *forecast) {
	if b.Count == 0 {
		b.StartTS = e.TS
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
	b.EndTS = e.TS
	b.ActualSum += e.Actual
	if f.HasPred {
		b.Predicted++
		b.PredSum += f.Pred
		b.AbsErrSum += math.Abs(f.Pred - e.Actual)
		for i := range b.Experts {
			if b.Experts[i].Expert == f.Expert {
				b.Experts[i].Count++
				return
			}
		}
		b.Experts = append(b.Experts, tally{Expert: f.Expert, Count: 1})
	}
}

// row flattens the accumulator into a closed row.
func (b *bucket) row() row {
	r := row{StartTS: b.StartTS, EndTS: b.EndTS, ActualMin: b.ActualMin, ActualMax: b.ActualMax,
		Predicted: uint32(b.Predicted)}
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
		r.Expert = b.Experts[best].Expert
	}
	return r
}

// expand rebuilds r in full as a row of count steps ending at step end.
func (r *row) expand(count int, end uint64, names []string) HistoryRow {
	return HistoryRow{
		StartTS: r.StartTS, EndTS: r.EndTS,
		StartSeq: end - uint64(count) + 1, EndSeq: end,
		Count: count, Predicted: int(r.Predicted),
		ActualAvg: r.ActualAvg, ActualMin: r.ActualMin, ActualMax: r.ActualMax,
		PredAvg: r.PredAvg, AbsErrAvg: r.AbsErrAvg,
		Expert: names[r.Expert],
	}
}

// historyTier is one consolidated tier's runtime state: a row ring plus the
// open bucket.
type historyTier struct {
	steps  int
	rows   ring[row]
	bucket bucket
}

// closedEnd returns the last step of the i-th oldest closed row of a stream
// at step seq.
func (t *historyTier) closedEnd(i int, seq uint64) uint64 {
	return seq - uint64(t.bucket.Count) - uint64(t.rows.filled-1-i)*uint64(t.steps)
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
		sh.tiers[i] = historyTier{steps: t.Steps, rows: ring[row]{max: t.Rows}}
	}
	return sh
}

// HistoryStore holds every stream's forecast history. Construct with
// NewHistoryStore; wire Record into the engine's OnResult path alongside
// ResultCache.Record.
type HistoryStore struct {
	cfg   HistoryConfig
	m     sync.Map // stream id -> *streamHistory
	names nameTable

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
	h := &HistoryStore{cfg: cfg}
	h.names.cur.Store(&names{list: []string{""}})
	return h, nil
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
// stream's rings reach their configured length and its experts are named
// in the table.
func (h *HistoryStore) Record(r engine.Result) {
	sh := h.stream(r.ID)
	e := rawEntry{TS: r.TS, Actual: r.Value}
	if r.Err == nil {
		e.Next, e.NextStd, e.NextExpert, e.HasNext = r.Pred.Value, r.Pred.StdEstimate, h.names.intern(r.Pred.SelectedName), true
	}
	hook := h.onAppend.Load()
	sh.mu.Lock()
	sh.seq++
	var full HistoryEntry
	if hook != nil {
		full = e.expand(sh.seq, &sh.pending, h.names.load().list)
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
		t.bucket.add(e, &sh.pending)
		if t.bucket.Count >= t.steps {
			r := t.bucket.row()
			t.rows.push(&r)
			t.bucket.reset()
		}
	}
	sh.pending.carry(e)
}

// entries appends to dst the raw steps from the i-th oldest on that keep
// accepts (all when keep is nil), expanded, oldest first. Callers hold
// sh.mu.
func (sh *streamHistory) entries(dst []HistoryEntry, i int, keep func(*rawEntry) bool, names []string) []HistoryEntry {
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
			dst = append(dst, e.expand(seq, &f, names))
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
	names := h.names.load().list
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
		res.Entries = sh.entries(nil, start, keep, names)
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
	outside := func(startTS, endTS int64) bool {
		return (q.HasFrom && endTS < q.From) || (q.HasTo && startTS > q.To)
	}
	for i := 0; i < t.rows.filled; i++ {
		r := t.rows.at(i)
		if !outside(r.StartTS, r.EndTS) {
			res.Rows = append(res.Rows, r.expand(t.steps, t.closedEnd(i, sh.seq), names))
		}
	}
	// The open bucket serves as a final partial row so the range reaches
	// the present even between consolidation boundaries.
	if t.bucket.Count > 0 && !outside(t.bucket.StartTS, t.bucket.EndTS) {
		r := t.bucket.row()
		res.Rows = append(res.Rows, r.expand(t.bucket.Count, sh.seq, names))
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
		dst = sh.entries(dst, start, nil, h.names.load().list)
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

// HistoryBucketState is a tier's persisted open bucket: the accumulator of
// raw steps toward one consolidated row, so a restart resumes mid-bucket
// instead of losing the partial row.
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
	names := h.names.load().list
	st := HistoryState{Seq: sh.seq}
	p := &st.Pending
	p.Pred, p.Std, p.Expert, p.HasPred = sh.pending.Pred, sh.pending.Std, names[sh.pending.Expert], sh.pending.HasPred
	st.Raw = sh.entries(make([]HistoryEntry, 0, sh.raw.filled), 0, nil, names)
	for i := range sh.tiers {
		t := &sh.tiers[i]
		ts := HistoryTierState{Steps: t.steps, Rows: make([]HistoryRow, 0, t.rows.filled)}
		for j := 0; j < t.rows.filled; j++ {
			ts.Rows = append(ts.Rows, t.rows.at(j).expand(t.steps, t.closedEnd(j, sh.seq), names))
		}
		b := &t.bucket
		ts.Bucket = HistoryBucketState{
			Count: b.Count, Predicted: b.Predicted, StartTS: b.StartTS, EndTS: b.EndTS,
			ActualSum: b.ActualSum, ActualMin: b.ActualMin, ActualMax: b.ActualMax,
			PredSum: b.PredSum, AbsErrSum: b.AbsErrSum,
		}
		if b.Count > 0 {
			ts.Bucket.StartSeq, ts.Bucket.EndSeq = sh.seq-uint64(b.Count)+1, sh.seq
		}
		if len(b.Experts) > 0 {
			ts.Bucket.Experts = make([]HistoryExpertCount, len(b.Experts))
			for j, x := range b.Experts {
				ts.Bucket.Experts[j] = HistoryExpertCount{Name: names[x.Expert], Count: x.Count}
			}
		}
		st.Tiers = append(st.Tiers, ts)
	}
	return st, true
}

// Restore primes a stream's history from persisted state — the warm-restart
// and handoff install path. State captured under a different tier layout
// degrades gracefully: raw entries clamp to the current ring capacity
// (newest kept) and only tiers whose Steps match the current config keep
// their rows; mismatched tiers restart cold. So does a tier whose state
// this store could not have recorded (see historyTier.load). Restore fails,
// installing nothing, only when the state's names do not fit in the
// store's name table.
func (h *HistoryStore) Restore(id string, st HistoryState) error {
	sh, err := h.load(&st)
	if err != nil {
		return err
	}
	h.m.Store(id, sh)
	return nil
}

// load builds a stream history from persisted state, adding its names to
// the table.
func (h *HistoryStore) load(st *HistoryState) (*streamHistory, error) {
	for {
		in := interner{base: h.names.load()}
		sh := h.build(st, &in)
		if len(in.missing) == 0 {
			return sh, nil
		}
		ok, err := h.names.extend(in.base, in.missing)
		if err != nil {
			return nil, fmt.Errorf("server: restore history: %w", err)
		}
		if ok {
			return sh, nil
		}
		// Names were added since base: index against the new table.
	}
}

// build converts st into a stream history, with names indexed by in.
func (h *HistoryStore) build(st *HistoryState, in *interner) *streamHistory {
	sh := h.newStream()
	sh.seq = st.Seq
	raw := st.Raw
	if len(raw) > h.cfg.RawRows {
		raw = raw[len(raw)-h.cfg.RawRows:]
	}
	if uint64(len(raw)) > st.Seq {
		raw = raw[len(raw)-int(st.Seq):] // steps the stream never took
	}
	// Persisted entries carry their Seq and targeting forecast; the ring
	// derives both, from st.Seq and from the oldest kept entry's forecast.
	// The pending forecast is then the last one the kept entries issue (or
	// the one targeting the oldest), as recording them would leave it; only
	// an empty ring takes st.Pending.
	if len(raw) == 0 {
		p := &st.Pending
		sh.pending = in.forecast(p.Pred, p.Std, p.Expert, p.HasPred)
		sh.first = sh.pending
	} else {
		e := &raw[0]
		sh.first = in.forecast(e.Pred, e.Std, e.Expert, e.HasPred)
		sh.pending = sh.first
		buf := sh.raw.fill(len(raw))
		for i := range raw {
			e := &raw[i]
			buf[i] = rawEntry{TS: e.TS, Actual: e.Actual,
				Next: e.Next, NextStd: e.NextStd, NextExpert: in.index(e.NextExpert), HasNext: e.HasNext}
			sh.pending.carry(&buf[i])
		}
	}
	for i := range sh.tiers {
		t := &sh.tiers[i]
		for j := range st.Tiers {
			if st.Tiers[j].Steps == t.steps {
				t.load(st.Seq, &st.Tiers[j], in)
				break
			}
		}
	}
	return sh
}

// load restores the tier from ts, whose Steps match, when ts is state this
// tier could have recorded by step seq: an open bucket of fewer than steps
// steps ending at seq, and rows of exactly steps steps each, running
// contiguously up to the bucket's first step. Rows clamp to the ring's
// capacity (newest kept). Otherwise the tier stays cold.
func (t *historyTier) load(seq uint64, ts *HistoryTierState, in *interner) {
	b := &ts.Bucket
	if b.Count < 0 || b.Count >= t.steps || uint64(b.Count) > seq || b.Predicted < 0 || b.Predicted > b.Count {
		return
	}
	if b.Count == 0 && (b.StartSeq != 0 || b.EndSeq != 0) ||
		b.Count > 0 && (b.EndSeq != seq || b.StartSeq != seq-uint64(b.Count)+1) {
		return
	}
	rows := ts.Rows
	if len(rows) > t.rows.max {
		rows = rows[len(rows)-t.rows.max:]
	}
	end := seq - uint64(b.Count)
	for i := len(rows) - 1; i >= 0; i-- {
		r := &rows[i]
		if r.Count != t.steps || r.EndSeq != end || r.StartSeq > r.EndSeq || r.EndSeq-r.StartSeq != uint64(t.steps-1) ||
			r.Predicted < 0 || r.Predicted > r.Count {
			return
		}
		end = r.StartSeq - 1
	}
	buf := t.rows.fill(len(rows))
	for i := range rows {
		r := &rows[i]
		buf[i] = row{StartTS: r.StartTS, EndTS: r.EndTS,
			ActualAvg: r.ActualAvg, ActualMin: r.ActualMin, ActualMax: r.ActualMax,
			PredAvg: r.PredAvg, AbsErrAvg: r.AbsErrAvg,
			Predicted: uint32(r.Predicted), Expert: in.index(r.Expert)}
	}
	t.bucket = bucket{Count: b.Count, Predicted: b.Predicted, StartTS: b.StartTS, EndTS: b.EndTS,
		ActualSum: b.ActualSum, ActualMin: b.ActualMin, ActualMax: b.ActualMax,
		PredSum: b.PredSum, AbsErrSum: b.AbsErrSum}
	if len(b.Experts) > 0 {
		t.bucket.Experts = make([]tally, len(b.Experts))
		for i, x := range b.Experts {
			t.bucket.Experts[i] = tally{Expert: in.index(x.Name), Count: x.Count}
		}
	}
}

// Each calls f for every stream with history. Iteration order is
// unspecified.
func (h *HistoryStore) Each(f func(id string)) {
	h.m.Range(func(k, _ any) bool {
		f(k.(string))
		return true
	})
}
