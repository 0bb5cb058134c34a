package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refDedup is the map-backed idempotency table Dedup replaced, kept as the
// reference for its decisions: each (stream, source) window is a floor, a
// max and a set of explicit seqs above the floor, and the floor moves only
// when the set exceeds 2*dedupWindow and is compacted to max-dedupWindow.
// Dedup also keeps its floor at the contiguous applied prefix, so the two
// write different Floor fields for the same coverage; their windows are
// compared by the seqs they cover. The reference's exported windows list
// seqs in map order above a floor of 0 until it compacts, as snapshots
// written by the map-backed table did.
type refDedup struct {
	streams     map[string]map[string]*refWindow
	applied     map[string]uint64
	compactions int
}

type refWindow struct {
	floor, max uint64
	seqs       map[uint64]bool
}

func newRefDedup() *refDedup {
	return &refDedup{streams: map[string]map[string]*refWindow{}, applied: map[string]uint64{}}
}

func (r *refDedup) window(stream, source string) *refWindow {
	sources := r.streams[stream]
	if sources == nil {
		sources = map[string]*refWindow{}
		r.streams[stream] = sources
	}
	w := sources[source]
	if w == nil {
		w = &refWindow{seqs: map[uint64]bool{}}
		sources[source] = w
	}
	return w
}

func (r *refDedup) apply(stream, source string, seq uint64) bool {
	w := r.window(stream, source)
	if seq <= w.floor || w.seqs[seq] {
		return false
	}
	w.seqs[seq] = true
	w.max = max(w.max, seq)
	if w.max > dedupWindow && len(w.seqs) > 2*dedupWindow {
		newFloor := w.max - dedupWindow
		for s := range w.seqs {
			if s <= newFloor {
				delete(w.seqs, s)
			}
		}
		w.floor = max(w.floor, newFloor)
		r.compactions++
	}
	r.applied[stream]++
	return true
}

func (r *refDedup) revert(stream, source string, seq uint64) {
	w := r.streams[stream][source]
	if w == nil || seq <= w.floor || !w.seqs[seq] {
		return
	}
	delete(w.seqs, seq)
	r.applied[stream]--
}

func (r *refDedup) state() DedupState {
	st := DedupState{Streams: map[string]map[string]SourceWindow{}, Applied: map[string]uint64{}}
	for stream, sources := range r.streams {
		out := map[string]SourceWindow{}
		for source, w := range sources {
			sw := SourceWindow{Floor: w.floor, Max: w.max, Seqs: []uint64{}}
			for s := range w.seqs {
				sw.Seqs = append(sw.Seqs, s)
			}
			out[source] = sw
		}
		st.Streams[stream] = out
	}
	for stream, n := range r.applied {
		st.Applied[stream] = n
	}
	return st
}

func (r *refDedup) merge(stream string, windows map[string]SourceWindow) {
	if r.streams[stream] == nil {
		r.streams[stream] = map[string]*refWindow{}
	}
	for source, sw := range windows {
		w := r.window(stream, source)
		w.floor = max(w.floor, sw.Floor)
		w.max = max(w.max, sw.Max)
		for _, s := range sw.Seqs {
			w.seqs[s] = true
		}
		for s := range w.seqs {
			if s <= w.floor {
				delete(w.seqs, s)
			}
		}
	}
	var applied uint64
	for _, w := range r.streams[stream] {
		applied += w.floor + uint64(len(w.seqs))
	}
	r.applied[stream] = applied
}

func (r *refDedup) restore(st DedupState) {
	r.streams = map[string]map[string]*refWindow{}
	r.applied = map[string]uint64{}
	for stream, sources := range st.Streams {
		r.streams[stream] = map[string]*refWindow{}
		for source, sw := range sources {
			w := &refWindow{floor: sw.Floor, max: sw.Max, seqs: map[uint64]bool{}}
			for _, s := range sw.Seqs {
				if s > w.floor {
					w.seqs[s] = true
				}
			}
			r.streams[stream][source] = w
		}
	}
	for stream, n := range st.Applied {
		r.applied[stream] = n
	}
}

// sameWindows reports whether exported windows cover the same seqs as the
// reference's for one stream, with the same Max. Dedup's windows must also
// be collapsed: Seqs strictly ascending, all above Floor+1. Coverage is
// compared by inclusion and size: the reference covers every seq the table
// does, and both cover as many.
func sameWindows(got map[string]SourceWindow, want map[string]*refWindow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d sources, want %d", len(got), len(want))
	}
	for source, w := range want {
		g, ok := got[source]
		if !ok {
			return fmt.Errorf("source %q missing", source)
		}
		if g.Max != w.max {
			return fmt.Errorf("source %q max %d, want %d", source, g.Max, w.max)
		}
		for i, s := range g.Seqs {
			if s <= g.Floor+1 || i > 0 && s <= g.Seqs[i-1] {
				return fmt.Errorf("source %q not collapsed: seq %d at %d above floor %d", source, s, i, g.Floor)
			}
		}
		if w.floor > g.Floor {
			return fmt.Errorf("source %q floor %d below the reference's %d", source, g.Floor, w.floor)
		}
		for s := w.floor + 1; s <= g.Floor; s++ {
			if !w.seqs[s] {
				return fmt.Errorf("source %q covers seq %d, which the reference does not", source, s)
			}
		}
		for _, s := range g.Seqs {
			if !w.seqs[s] {
				return fmt.Errorf("source %q holds seq %d, which the reference does not", source, s)
			}
		}
		if n, want := g.Floor+uint64(len(g.Seqs)), w.floor+uint64(len(w.seqs)); n != want {
			return fmt.Errorf("source %q covers %d seqs, want %d", source, n, want)
		}
	}
	return nil
}

// dedupPair drives a Dedup and the reference through the same operations.
// The two agree on every decision and every Applied count until the
// reference compacts a window, which moves its floor over seqs it never
// applied; Dedup's smaller explicit sets compact no sooner. So whenever the
// reference compacts, the table restores the reference's state — a
// parent-format window with a compaction floor — and the comparison
// resumes on equal coverage.
type dedupPair struct {
	d       *Dedup
	ref     *refDedup
	resyncs int
}

func newDedupPair() *dedupPair { return &dedupPair{d: NewDedup(), ref: newRefDedup()} }

func (p *dedupPair) apply(stream, source string, seq uint64) error {
	compactions := p.ref.compactions
	if got, want := p.d.Apply(stream, source, seq), p.ref.apply(stream, source, seq); got != want {
		return fmt.Errorf("Apply(%s, %s, %d) = %v, want %v", stream, source, seq, got, want)
	}
	if err := p.checkApplied(stream); err != nil {
		return err
	}
	if p.ref.compactions != compactions {
		p.d.Restore(p.ref.state())
		p.resyncs++
	}
	return nil
}

// revert withdraws seq from both tables. A seq at or below the reference's
// floor is left alone: the reference cannot withdraw it, while Dedup, whose
// floor is also its contiguous applied prefix, splits the floor.
func (p *dedupPair) revert(stream, source string, seq uint64) error {
	if w := p.ref.streams[stream][source]; w != nil && seq <= w.floor {
		return nil
	}
	p.d.Revert(stream, source, seq)
	p.ref.revert(stream, source, seq)
	return p.checkApplied(stream)
}

func (p *dedupPair) merge(stream string, windows map[string]SourceWindow) error {
	p.d.MergeStream(stream, windows)
	p.ref.merge(stream, windows)
	return p.checkApplied(stream)
}

// restore installs st in both tables.
func (p *dedupPair) restore(st DedupState) {
	p.d.Restore(st)
	p.ref.restore(st)
}

func (p *dedupPair) checkApplied(stream string) error {
	gotN, gotOK := p.d.Applied(stream)
	if wantN, wantOK := p.ref.applied[stream]; gotN != wantN || gotOK != wantOK {
		return fmt.Errorf("Applied(%s) = %d/%v, want %d/%v", stream, gotN, gotOK, wantN, wantOK)
	}
	return nil
}

// checkStream compares one stream's StreamState with the reference.
func (p *dedupPair) checkStream(stream string) error {
	win, n, ok := p.d.StreamState(stream)
	_, known := p.ref.streams[stream]
	_, counted := p.ref.applied[stream]
	if ok != (known || counted) || n != p.ref.applied[stream] {
		return fmt.Errorf("StreamState(%s) applied %d ok %v, want %d %v", stream, n, ok, p.ref.applied[stream], known || counted)
	}
	if !ok {
		return nil
	}
	if err := sameWindows(win, p.ref.streams[stream]); err != nil {
		return fmt.Errorf("StreamState(%s): %v", stream, err)
	}
	return nil
}

// checkAll compares the whole State with the reference.
func (p *dedupPair) checkAll() error {
	st := p.d.State()
	if len(st.Streams) != len(p.ref.streams) || len(st.Applied) != len(p.ref.applied) {
		return fmt.Errorf("State has %d/%d streams, want %d/%d",
			len(st.Streams), len(st.Applied), len(p.ref.streams), len(p.ref.applied))
	}
	for stream, n := range p.ref.applied {
		if st.Applied[stream] != n {
			return fmt.Errorf("State applied[%s] = %d, want %d", stream, st.Applied[stream], n)
		}
	}
	for stream := range p.ref.streams {
		if err := sameWindows(st.Streams[stream], p.ref.streams[stream]); err != nil {
			return fmt.Errorf("State stream %s: %v", stream, err)
		}
	}
	return nil
}

// shuffledState is the reference's state with each window's seqs shuffled
// and one duplicated, as a map-backed table could write them.
func (p *dedupPair) shuffledState(rng *rand.Rand) DedupState {
	st := p.ref.state()
	for _, windows := range st.Streams {
		for src, sw := range windows {
			rng.Shuffle(len(sw.Seqs), func(i, j int) { sw.Seqs[i], sw.Seqs[j] = sw.Seqs[j], sw.Seqs[i] })
			if len(sw.Seqs) > 0 {
				sw.Seqs = append(sw.Seqs, sw.Seqs[0])
			}
			windows[src] = sw
		}
	}
	return st
}

// TestDedupMatchesReference drives Dedup and refDedup through the same
// seeded sequences of Apply, Revert, MergeStream, State→Restore and
// StreamState, with out-of-order and retried keys from several sources and
// enough traffic to compact every busy window of the reference several
// times. Every decision and every Applied count must match, and every
// exported window must cover the reference's seqs.
func TestDedupMatchesReference(t *testing.T) {
	sources := []string{"s1", "s2", "s3"}
	// Traffic is skewed so the busiest windows compact repeatedly.
	pick := func(rng *rand.Rand, names []string) string {
		switch r := rng.Intn(20); {
		case r < 13:
			return names[0]
		case r < 19:
			return names[1]
		default:
			return names[2]
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newDedupPair()
		next := map[string]uint64{} // per stream/source: the newest seq issued
		for op := 0; op < 60000; op++ {
			stream, source := pick(rng, []string{"a", "b", "c"}), pick(rng, sources)
			key := stream + "/" + source
			var err error
			switch r := rng.Intn(1000); {
			case r < 900: // apply: mostly in order, some holes, retries and stragglers
				var seq uint64
				switch k := rng.Intn(100); {
				case k < 70:
					next[key] += 1 + uint64(rng.Intn(2))
					seq = next[key]
				case k < 90 && next[key] > 0:
					seq = next[key] - uint64(rng.Int63n(int64(min(next[key], 300))))
				case k < 97 && next[key] > 0:
					seq = uint64(rng.Int63n(int64(next[key]))) + 1
				default:
					next[key] += uint64(rng.Intn(40))
					seq = next[key]
				}
				err = p.apply(stream, source, seq)
			case r < 960: // revert a recent or unknown seq
				err = p.revert(stream, source, next[key]-uint64(rng.Int63n(int64(min(next[key], 50))+1)))
			case r < 990:
				err = p.checkStream(stream)
			case r < 996: // merge a peer's windows: unsorted, duplicated, some at or below the floor
				peer := map[string]SourceWindow{}
				for _, src := range sources[:1+rng.Intn(len(sources))] {
					top := next[stream+"/"+src] + uint64(rng.Intn(20))
					sw := SourceWindow{Max: top}
					if top > 3*dedupWindow && rng.Intn(3) == 0 {
						sw.Floor = top - 2*dedupWindow
					}
					for i := rng.Intn(200); i > 0; i-- {
						sw.Seqs = append(sw.Seqs, uint64(rng.Int63n(int64(top)+1)))
					}
					if len(sw.Seqs) > 0 {
						sw.Seqs = append(sw.Seqs, sw.Seqs[0]) // a duplicate
					}
					peer[src] = sw
				}
				err = p.merge(stream, peer)
			case r < 998: // snapshot round trip through the table's own State
				p.d.Restore(p.d.State())
				err = p.checkAll()
			default: // restore a map-ordered snapshot, as a map-backed table wrote it
				p.restore(p.shuffledState(rng))
			}
			if err == nil && op%5000 == 0 {
				err = p.checkAll()
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		if err := p.checkAll(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.ref.compactions < 3 {
			t.Fatalf("seed %d: %d compactions; the sequence must run past compaction", seed, p.ref.compactions)
		}
		t.Logf("seed %d: %d compactions, %d resyncs", seed, p.ref.compactions, p.resyncs)
	}
}

// FuzzDedup drives Dedup and the reference through the operations the
// input spells out, two bytes each. It checks every decision, every Applied
// count and the coverage of every stream after each operation. Op codes
// (low three bits of the first byte; its top two bits pick the stream and
// the source):
//
//	0-2: apply the next seq, 0-3 past the last one issued (0 retries it)
//	3:   apply a straggler up to 15 behind the last seq issued
//	4:   revert a seq up to 7 behind the last one issued
//	5:   apply a batch of 1-16 fresh seqs in order, then revert all of it,
//	     newest first when bit 4 of the argument is set, else oldest first
//	     (a WAL append that failed after its marks)
//	6:   merge a peer window: a parent-format one (floor 0, explicit 1..n)
//	     when bit 0 of the argument is set, else one with a floor
//	7:   restore the reference's state (parent format until it compacts),
//	     or, when bit 0 of the argument is set, the table's own
func FuzzDedup(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 4, 2, 4, 0}) // collapse, then revert into the floor
	f.Add([]byte{0, 3, 0, 1, 0, 1, 0, 2, 5, 0x08})    // forward-order batch revert after a collapse
	f.Add([]byte{0, 1, 0, 1, 3, 2, 5, 0x1f, 0, 1})    // reverse-order batch revert after a collapse
	f.Add([]byte{6, 9, 0, 1, 0, 1, 4, 5})             // parent-format peer window collapses on merge
	f.Add([]byte{0, 2, 0, 2, 0, 1, 7, 0, 0, 1, 4, 1}) // parent-format snapshot restores collapsed
	f.Add([]byte{0x40, 1, 0x80, 2, 0xc5, 0x13, 6, 4, 7, 1, 3, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newDedupPair()
		rng := rand.New(rand.NewSource(int64(len(data))))
		next := map[string]uint64{}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], uint64(data[i+1])
			stream, source := []string{"a", "b"}[op>>7], []string{"s1", "s2"}[op>>6&1]
			key := stream + "/" + source
			back := func(n uint64) uint64 { return next[key] - min(next[key], n) }
			var err error
			switch op & 7 {
			case 0, 1, 2:
				next[key] += arg % 4
				err = p.apply(stream, source, next[key])
			case 3:
				err = p.apply(stream, source, back(arg%16))
			case 4:
				err = p.revert(stream, source, back(arg%8))
			case 5:
				batch := make([]uint64, 1+arg%16)
				for j := range batch {
					next[key]++
					batch[j] = next[key]
					if err == nil {
						err = p.apply(stream, source, batch[j])
					}
				}
				if arg&0x10 != 0 {
					slices.Reverse(batch)
				}
				for _, seq := range batch {
					if err == nil {
						err = p.revert(stream, source, seq)
					}
				}
			case 6:
				sw := SourceWindow{Max: arg % 32}
				if arg&1 == 0 {
					sw.Floor = arg % 8
				}
				for s := uint64(1); s <= sw.Max; s++ {
					if arg&1 != 0 || s%3 != 0 {
						sw.Seqs = append(sw.Seqs, s)
					}
				}
				err = p.merge(stream, map[string]SourceWindow{source: sw})
			case 7:
				if arg&1 != 0 {
					p.d.Restore(p.d.State())
				} else {
					p.restore(p.shuffledState(rng))
				}
			}
			for _, s := range []string{"a", "b"} {
				if err == nil {
					err = p.checkStream(s)
				}
			}
			if err != nil {
				t.Fatalf("op %d (%#x %d): %v", i/2, op, arg, err)
			}
		}
	})
}

// TestDedupFootprint bounds the heap the table holds per tracked key: 5,000
// streams with one source each and 112 keys apiece (560k keys). Sorted
// slices measured 12.4 B a key on amd64 and map-backed windows 24.4; an
// in-order source now holds only its floor.
func TestDedupFootprint(t *testing.T) {
	const streams, perStream = 5000, 112
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("vm%d/cpu", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDedup()
	for seq := uint64(1); seq <= perStream; seq++ {
		for _, id := range ids {
			d.Apply(id, "src", seq)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	perKey := float64(after.HeapAlloc-before.HeapAlloc) / (streams * perStream)
	t.Logf("%.1f heap bytes per key", perKey)
	if perKey > 15 {
		t.Errorf("%.1f heap bytes per tracked key, want <= 15", perKey)
	}
}

// TestDedupInOrderFootprint: a source that numbers its samples in order
// holds no explicit seqs however long it runs — its window is its floor —
// and a steady-state Apply allocates nothing.
func TestDedupInOrderFootprint(t *testing.T) {
	const n = 100_000
	d := NewDedup()
	for seq := uint64(1); seq <= n; seq++ {
		if !d.Apply("s", "src", seq) {
			t.Fatalf("seq %d rejected on first apply", seq)
		}
	}
	if w := d.streams["s"]["src"]; len(w.seqs) != 0 || cap(w.seqs) != 0 || w.floor != n {
		t.Fatalf("after %d in-order applies: floor %d, %d explicit seqs (cap %d); want floor %d and none",
			n, w.floor, len(w.seqs), cap(w.seqs), n)
	}
	seq := uint64(n)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		d.Apply("s", "src", seq)
	})
	if allocs != 0 {
		t.Errorf("steady-state Apply allocates %.1f times, want 0", allocs)
	}
	if got, _ := d.Applied("s"); got != seq {
		t.Errorf("applied = %d, want %d", got, seq)
	}
}
