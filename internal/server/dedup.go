package server

import (
	"slices"
	"sync"
)

// dedupWindow bounds a source that leaves a permanent hole. Once a window
// holds more than 2*dedupWindow explicit seqs, its floor jumps to
// max - dedupWindow: everything at or below it is then treated as applied.
// Retries arrive promptly, so by the time a seq falls that far behind its
// batch has long been resolved one way or the other.
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
// The floor is the contiguous applied prefix — floor+1 is never in seqs —
// so a source that numbers its samples in order holds no explicit seqs at
// all, and seqs holds only what arrived above the first hole: ascending and
// duplicate-free, 8 bytes a key.
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
	w.max = max(w.max, seq)
	if seq == w.floor+1 {
		w.floor = seq
		w.collapse()
	} else {
		if n := len(w.seqs); n == 0 || seq > w.seqs[n-1] {
			w.seqs = append(w.seqs, seq)
		} else {
			i, dup := slices.BinarySearch(w.seqs, seq)
			if dup {
				return false
			}
			w.seqs = slices.Insert(w.seqs, i, seq)
		}
		w.compact()
	}
	d.applied[stream]++
	return true
}

// Revert withdraws a mark made by Apply — the failure path when the durable
// log rejected the batch after the mark, so a client retry must be admitted.
// A seq the floor has absorbed splits it: the floor drops to seq-1 and the
// seqs above seq become explicit again, so a batch can be withdrawn in
// either order. A seq 2*dedupWindow or more below the floor stays applied,
// as the window's compaction would treat it.
func (d *Dedup) Revert(stream, source string, seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.streams[stream][source]
	if w == nil || seq == 0 {
		return
	}
	switch {
	case seq > w.floor:
		i, ok := slices.BinarySearch(w.seqs, seq)
		if !ok {
			return
		}
		if i == 0 {
			// An oldest-first withdrawal of a split run pops the front
			// without a copy.
			w.seqs = w.seqs[1:]
		} else {
			w.seqs = slices.Delete(w.seqs, i, i+1)
		}
	case w.floor-seq >= 2*dedupWindow:
		return
	default:
		above := make([]uint64, 0, int(w.floor-seq)+len(w.seqs))
		for s := seq + 1; s <= w.floor; s++ {
			above = append(above, s)
		}
		w.seqs = append(above, w.seqs...)
		w.floor = seq - 1
	}
	if len(w.seqs) == 0 {
		w.seqs = nil
	}
	d.applied[stream]--
}

// collapse moves the explicit seqs that continue the floor into it.
func (w *seqWindow) collapse() {
	k := 0
	for k < len(w.seqs) && w.seqs[k] == w.floor+uint64(k)+1 {
		k++
	}
	w.floor += uint64(k)
	if w.seqs = w.seqs[k:]; len(w.seqs) == 0 {
		w.seqs = nil // release what a filled hole held
	}
}

// compact bounds a window held open by a hole: past 2*dedupWindow explicit
// seqs the floor jumps to max - dedupWindow, and whatever then continues
// it collapses into it. Called with the table lock held.
func (w *seqWindow) compact() {
	if w.max <= dedupWindow || len(w.seqs) <= 2*dedupWindow {
		return
	}
	w.floor = w.max - dedupWindow
	i, _ := slices.BinarySearch(w.seqs, w.floor+1)
	w.seqs = slices.Delete(w.seqs, 0, i)
	w.collapse()
}

// install sets the window's explicit seqs from imported ones: sorted in
// place, deduplicated, those at or below the floor dropped, and the run
// that continues the floor collapsed into it — the form every imported
// window is brought to (see SourceWindow).
func (w *seqWindow) install(seqs []uint64) {
	slices.Sort(seqs)
	seqs = slices.Compact(seqs)
	i, _ := slices.BinarySearch(seqs, w.floor+1)
	w.seqs = slices.Delete(seqs, 0, i)
	w.collapse()
}

// exported returns the window in exported form, its Seqs a fresh ascending
// slice.
func (w *seqWindow) exported() SourceWindow {
	return SourceWindow{Floor: w.floor, Max: w.max, Seqs: append(make([]uint64, 0, len(w.seqs)), w.seqs...)}
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
// source, the floor becomes the max of the two floors, the explicit seq
// sets union (dropping seqs the new floor covers), and the run that then
// continues the floor collapses into it. The stream's applied count is
// recomputed as Σ(floor + explicit seqs) per source: exact while no window
// has compacted over a hole, since a floor is otherwise a contiguous
// applied prefix, and the same everything-at-or-below-the-floor-was-applied
// approximation Apply itself uses afterwards.
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
		w.floor = max(w.floor, sw.Floor)
		w.max = max(w.max, sw.Max)
		w.install(append(w.seqs, sw.Seqs...))
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
			w := &seqWindow{floor: sw.Floor, max: sw.Max}
			w.install(slices.Clone(sw.Seqs))
			in[source] = w
		}
		d.streams[stream] = in
	}
	for stream, n := range st.Applied {
		d.applied[stream] = n
	}
}
