package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// refDedup is a map-backed idempotency table with Dedup's documented
// semantics: each (stream, source) window is a floor, a max and a set of
// explicit seqs above the floor, compacted to max-dedupWindow once the set
// exceeds 2*dedupWindow. Its exported windows list seqs in map order, as
// snapshots written by the map-backed table did.
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

// sameWindows reports whether exported windows match the reference's for
// one stream. Seqs must be strictly ascending and hold exactly the
// reference's set.
func sameWindows(got map[string]SourceWindow, want map[string]*refWindow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d sources, want %d", len(got), len(want))
	}
	for source, w := range want {
		g, ok := got[source]
		if !ok {
			return fmt.Errorf("source %q missing", source)
		}
		if g.Floor != w.floor || g.Max != w.max {
			return fmt.Errorf("source %q floor/max %d/%d, want %d/%d", source, g.Floor, g.Max, w.floor, w.max)
		}
		if len(g.Seqs) != len(w.seqs) {
			return fmt.Errorf("source %q holds %d seqs, want %d", source, len(g.Seqs), len(w.seqs))
		}
		for i, s := range g.Seqs {
			if !w.seqs[s] {
				return fmt.Errorf("source %q holds seq %d, which the reference does not", source, s)
			}
			if i > 0 && s <= g.Seqs[i-1] {
				return fmt.Errorf("source %q seqs not strictly ascending at %d", source, i)
			}
		}
	}
	return nil
}

// TestDedupMatchesReference drives Dedup and refDedup through the same
// seeded sequences of Apply, Revert, MergeStream, State→Restore and
// StreamState, with out-of-order and retried keys from several sources and
// enough traffic to compact every busy window several times. Every
// decision, every Applied count and every exported window must match.
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
		d, ref := NewDedup(), newRefDedup()
		next := map[string]uint64{} // per stream/source: the newest seq issued
		check := func(op int, stream string) {
			t.Helper()
			gotN, gotOK := d.Applied(stream)
			if wantN, wantOK := ref.applied[stream]; gotN != wantN || gotOK != wantOK {
				t.Fatalf("seed %d op %d: Applied(%s) = %d/%v, want %d/%v", seed, op, stream, gotN, gotOK, wantN, wantOK)
			}
		}
		checkAll := func(op int) {
			t.Helper()
			st := d.State()
			if len(st.Streams) != len(ref.streams) || len(st.Applied) != len(ref.applied) {
				t.Fatalf("seed %d op %d: State has %d/%d streams, want %d/%d", seed, op,
					len(st.Streams), len(st.Applied), len(ref.streams), len(ref.applied))
			}
			for stream, n := range ref.applied {
				if st.Applied[stream] != n {
					t.Fatalf("seed %d op %d: State applied[%s] = %d, want %d", seed, op, stream, st.Applied[stream], n)
				}
			}
			for stream := range ref.streams {
				if err := sameWindows(st.Streams[stream], ref.streams[stream]); err != nil {
					t.Fatalf("seed %d op %d: State stream %s: %v", seed, op, stream, err)
				}
			}
		}
		for op := 0; op < 60000; op++ {
			stream, source := pick(rng, []string{"a", "b", "c"}), pick(rng, sources)
			key := stream + "/" + source
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
				if got, want := d.Apply(stream, source, seq), ref.apply(stream, source, seq); got != want {
					t.Fatalf("seed %d op %d: Apply(%s, %s, %d) = %v, want %v", seed, op, stream, source, seq, got, want)
				}
			case r < 960: // revert a recent or unknown seq
				seq := next[key] - uint64(rng.Int63n(int64(min(next[key], 50))+1))
				d.Revert(stream, source, seq)
				ref.revert(stream, source, seq)
			case r < 990: // StreamState must match the reference's windows
				win, n, ok := d.StreamState(stream)
				_, known := ref.streams[stream]
				_, counted := ref.applied[stream]
				if ok != (known || counted) || n != ref.applied[stream] {
					t.Fatalf("seed %d op %d: StreamState(%s) applied %d ok %v, want %d %v",
						seed, op, stream, n, ok, ref.applied[stream], known || counted)
				}
				if err := sameWindows(win, ref.streams[stream]); err != nil && ok {
					t.Fatalf("seed %d op %d: StreamState(%s): %v", seed, op, stream, err)
				}
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
				d.MergeStream(stream, peer)
				ref.merge(stream, peer)
			case r < 998: // snapshot round trip through the table's own State
				d.Restore(d.State())
				checkAll(op)
			default: // restore a map-ordered snapshot, as a map-backed table wrote it
				st := ref.state()
				for _, windows := range st.Streams {
					for src, sw := range windows {
						rng.Shuffle(len(sw.Seqs), func(i, j int) { sw.Seqs[i], sw.Seqs[j] = sw.Seqs[j], sw.Seqs[i] })
						if len(sw.Seqs) > 0 {
							sw.Seqs = append(sw.Seqs, sw.Seqs[0]) // a duplicate
						}
						windows[src] = sw
					}
				}
				d.Restore(st)
				ref.restore(st)
			}
			check(op, stream)
			if op%5000 == 0 {
				checkAll(op)
			}
		}
		checkAll(-1)
		if ref.compactions < 3 {
			t.Fatalf("seed %d: %d compactions; the sequence must run past compaction", seed, ref.compactions)
		}
		t.Logf("seed %d: %d compactions", seed, ref.compactions)
	}
}

// TestDedupFootprint bounds the heap the table holds per tracked key: 5,000
// streams with one source each and 112 keys apiece (560k keys). Sorted
// slices measure 12.4 B a key on amd64; map-backed windows took 24.4.
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
