package server

import (
	"slices"
	"sync"
)

// dedupWindow is how many sequence numbers behind a source's highest applied
// seq the table still distinguishes "applied" from "never seen". Anything at
// or below the floor (max - window) is treated as applied: retries arrive
// promptly, so by the time a seq falls out of the window its batch has long
// been resolved one way or the other.
const dedupWindow = 4096

// Dedup is the server-side idempotency table: for every stream it tracks,
// per client source, which sequence numbers have been applied, so a retried
// ingest batch is applied exactly once no matter how many times the network
// forced the client to resend it. It also keeps a durable per-stream count
// of applied keyed samples — the end-to-end audit number the chaos soak
// asserts on.
//
// Apply is the atomic check-and-mark: the caller treats a true return as a
// commitment to apply the sample (predictd logs it in the WAL before
// acking), and calls Revert only when that commitment could not be made.
// All methods are safe for concurrent use.
type Dedup struct {
	mu      sync.Mutex
	streams map[string]map[string]*seqWindow
	applied map[string]uint64
}

// seqWindow is one (stream, source) pair's applied-seq set: everything at or
// below floor is applied; seqs above floor are applied iff present in seqs.
// seqs is ascending and duplicate-free — 8 bytes a key, where a map spends
// about 21 — and clients number their samples in order, so Apply's common
// case is an append.
type seqWindow struct {
	floor uint64
	max   uint64
	seqs  []uint64
}

// NewDedup returns an empty table.
func NewDedup() *Dedup {
	return &Dedup{
		streams: map[string]map[string]*seqWindow{},
		applied: map[string]uint64{},
	}
}

// Apply marks (stream, source, seq) applied and reports whether it was new.
// A false return means the sample was already applied (or is so far behind
// the source's window that it must have been) and must be skipped.
func (d *Dedup) Apply(stream, source string, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	sources, ok := d.streams[stream]
	if !ok {
		sources = map[string]*seqWindow{}
		d.streams[stream] = sources
	}
	w, ok := sources[source]
	if !ok {
		w = &seqWindow{}
		sources[source] = w
	}
	if seq <= w.floor {
		return false
	}
	if n := len(w.seqs); n == 0 || seq > w.seqs[n-1] {
		w.seqs = append(w.seqs, seq)
	} else {
		i, dup := slices.BinarySearch(w.seqs, seq)
		if dup {
			return false
		}
		w.seqs = slices.Insert(w.seqs, i, seq)
	}
	if seq > w.max {
		w.max = seq
	}
	w.compact()
	d.applied[stream]++
	return true
}

// Revert withdraws a mark made by Apply — the failure path when the durable
// log rejected the batch after the mark, so a client retry must be admitted.
func (d *Dedup) Revert(stream, source string, seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sources := d.streams[stream]
	if sources == nil {
		return
	}
	w := sources[source]
	if w == nil || seq <= w.floor {
		return
	}
	i, ok := slices.BinarySearch(w.seqs, seq)
	if !ok {
		return
	}
	w.seqs = slices.Delete(w.seqs, i, i+1)
	d.applied[stream]--
}

// compact advances the floor so the live set stays bounded. Called with the
// table lock held.
func (w *seqWindow) compact() {
	if w.max <= dedupWindow || len(w.seqs) <= 2*dedupWindow {
		return
	}
	newFloor := w.max - dedupWindow
	i, _ := slices.BinarySearch(w.seqs, newFloor+1)
	w.seqs = slices.Delete(w.seqs, 0, i)
	if newFloor > w.floor {
		w.floor = newFloor
	}
}

// exported returns the window in exported form, its Seqs a fresh ascending
// slice.
func (w *seqWindow) exported() SourceWindow {
	return SourceWindow{Floor: w.floor, Max: w.max, Seqs: append(make([]uint64, 0, len(w.seqs)), w.seqs...)}
}

// normalizeSeqs sorts seqs in place, drops duplicates and every seq at or
// below floor, and returns the result: the form every imported window is
// brought to (see SourceWindow).
func normalizeSeqs(seqs []uint64, floor uint64) []uint64 {
	slices.Sort(seqs)
	seqs = slices.Compact(seqs)
	i, _ := slices.BinarySearch(seqs, floor+1)
	return slices.Delete(seqs, 0, i)
}

// Applied returns the stream's cumulative count of applied keyed samples.
func (d *Dedup) Applied(stream string) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.applied[stream]
	return n, ok
}

// DedupState is the table's exported snapshot form, persisted inside the
// predictd snapshot so idempotency survives a restart: without it, a batch
// acked just before a crash would be re-applied when the client retries it
// against the recovered daemon.
type DedupState struct {
	// Streams maps stream -> source -> applied-seq window.
	Streams map[string]map[string]SourceWindow
	// Applied maps stream -> cumulative applied keyed samples.
	Applied map[string]uint64
}

// SourceWindow is one (stream, source) window in exported form. Seqs are
// the explicit applied seqs above Floor, exported ascending; Restore and
// MergeStream accept them in any order and with duplicates, as tables
// that kept them in a map wrote them.
type SourceWindow struct {
	Floor, Max uint64
	Seqs       []uint64
}

// State captures the table for a snapshot.
func (d *Dedup) State() DedupState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DedupState{
		Streams: make(map[string]map[string]SourceWindow, len(d.streams)),
		Applied: make(map[string]uint64, len(d.applied)),
	}
	for stream, sources := range d.streams {
		out := make(map[string]SourceWindow, len(sources))
		for source, w := range sources {
			out[source] = w.exported()
		}
		st.Streams[stream] = out
	}
	for stream, n := range d.applied {
		st.Applied[stream] = n
	}
	return st
}

// StreamState captures one stream's windows and applied count in exported
// form — the per-stream slice of State that cluster handoff ships. ok is
// false when the table has never seen the stream.
func (d *Dedup) StreamState(stream string) (windows map[string]SourceWindow, applied uint64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sources, okS := d.streams[stream]
	applied, okA := d.applied[stream]
	if !okS && !okA {
		return nil, 0, false
	}
	windows = make(map[string]SourceWindow, len(sources))
	for source, w := range sources {
		windows[source] = w.exported()
	}
	return windows, applied, true
}

// MergeStream unions a peer's windows for one stream into the table: per
// source, the floor becomes the max of the two floors and the explicit seq
// sets union (dropping seqs the new floor covers). The stream's applied
// count is then recomputed as Σ(floor + live seqs) per source — exact
// while no window has compacted (floors are zero and every applied seq is
// explicit, which holds until a single source exceeds the dedup window),
// and the same everything-at-or-below-the-floor-was-applied approximation
// Apply itself uses afterwards.
//
// This is the warm-handoff install path: a rejoining node merges the
// coverage of every peer that held its streams, then replays its own WAL
// against the merged table, so each sample is applied exactly once no
// matter which node acked it.
func (d *Dedup) MergeStream(stream string, windows map[string]SourceWindow) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sources, ok := d.streams[stream]
	if !ok {
		sources = map[string]*seqWindow{}
		d.streams[stream] = sources
	}
	for source, sw := range windows {
		w, ok := sources[source]
		if !ok {
			w = &seqWindow{}
			sources[source] = w
		}
		if sw.Floor > w.floor {
			w.floor = sw.Floor
		}
		if sw.Max > w.max {
			w.max = sw.Max
		}
		w.seqs = normalizeSeqs(append(w.seqs, sw.Seqs...), w.floor)
	}
	var applied uint64
	for _, w := range sources {
		applied += w.floor + uint64(len(w.seqs))
	}
	d.applied[stream] = applied
}

// Restore replaces the table's contents with a snapshot captured by State.
func (d *Dedup) Restore(st DedupState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.streams = map[string]map[string]*seqWindow{}
	d.applied = map[string]uint64{}
	for stream, sources := range st.Streams {
		in := map[string]*seqWindow{}
		for source, sw := range sources {
			in[source] = &seqWindow{floor: sw.Floor, max: sw.Max,
				seqs: normalizeSeqs(slices.Clone(sw.Seqs), sw.Floor)}
		}
		d.streams[stream] = in
	}
	for stream, n := range st.Applied {
		d.applied[stream] = n
	}
}
