package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestDedupApplyRetryAndRevert(t *testing.T) {
	d := NewDedup()
	if !d.Apply("s", "src", 1) {
		t.Fatal("first apply rejected")
	}
	if d.Apply("s", "src", 1) {
		t.Fatal("duplicate apply accepted")
	}
	if !d.Apply("s", "src", 2) {
		t.Fatal("next seq rejected")
	}
	// Out-of-order older seq that was never applied is still admitted while
	// inside the window.
	if d.Apply("s", "src", 2) {
		t.Fatal("duplicate seq 2 accepted")
	}
	if n, ok := d.Applied("s"); !ok || n != 2 {
		t.Fatalf("applied = %d/%v, want 2/true", n, ok)
	}

	// Distinct sources and streams do not collide.
	if !d.Apply("s", "other", 1) {
		t.Error("other source's seq 1 rejected")
	}
	if !d.Apply("s2", "src", 1) {
		t.Error("other stream's seq 1 rejected")
	}

	d.Revert("s", "src", 2)
	if n, _ := d.Applied("s"); n != 2 { // 1 from src + 1 from other
		t.Errorf("applied after revert = %d, want 2", n)
	}
	if !d.Apply("s", "src", 2) {
		t.Error("reverted seq rejected on retry")
	}
	// Reverting something never applied is a no-op.
	d.Revert("s", "src", 99)
	d.Revert("nope", "src", 1)
}

func TestDedupStateRoundTrip(t *testing.T) {
	d := NewDedup()
	for seq := uint64(1); seq <= 10; seq++ {
		d.Apply("a", "src", seq)
	}
	d.Apply("b", "src2", 7)

	st := d.State()
	d2 := NewDedup()
	d2.Restore(st)
	for seq := uint64(1); seq <= 10; seq++ {
		if d2.Apply("a", "src", seq) {
			t.Fatalf("restored table re-admitted a/src/%d", seq)
		}
	}
	if d2.Apply("b", "src2", 7) {
		t.Error("restored table re-admitted b/src2/7")
	}
	if !d2.Apply("a", "src", 11) {
		t.Error("restored table rejected fresh seq")
	}
	if n, _ := d2.Applied("a"); n != 11 {
		t.Errorf("restored applied = %d, want 11", n)
	}
}

func TestDedupWindowFloor(t *testing.T) {
	d := NewDedup()
	// Push far past the window; the in-order run advances the floor.
	top := uint64(3 * dedupWindow)
	for seq := uint64(1); seq <= top; seq++ {
		if !d.Apply("s", "src", seq) {
			t.Fatalf("seq %d rejected on first apply", seq)
		}
	}
	// Anything at or below the floor is treated as applied.
	if d.Apply("s", "src", 1) {
		t.Error("ancient seq admitted after floor advanced")
	}
	if d.Apply("s", "src", top) {
		t.Error("max seq re-admitted")
	}
	if !d.Apply("s", "src", top+1) {
		t.Error("fresh seq rejected")
	}
	w := d.streams["s"]["src"]
	if len(w.seqs) > 2*dedupWindow+1 {
		t.Errorf("window not compacted: %d live seqs", len(w.seqs))
	}
}

func TestDedupConcurrentExactlyOnce(t *testing.T) {
	d := NewDedup()
	const workers = 8
	const seqs = 500
	var wins [seqs + 1]int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= seqs; seq++ {
				if d.Apply("s", "src", seq) {
					mu.Lock()
					wins[seq]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for seq := 1; seq <= seqs; seq++ {
		if wins[seq] != 1 {
			t.Fatalf("seq %d applied %d times", seq, wins[seq])
		}
	}
	if n, _ := d.Applied("s"); n != seqs {
		t.Errorf("applied = %d, want %d", n, seqs)
	}
}

func BenchmarkDedupApply(b *testing.B) {
	d := NewDedup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Apply("bench/stream", "src", uint64(i+1))
	}
	if _, ok := d.Applied("bench/stream"); !ok {
		b.Fatal(fmt.Errorf("no applied count"))
	}
}

// TestDedupSeqReuseAfterEviction: once compaction advances the floor, a
// seq that was never applied but has fallen at-or-below the floor is
// *treated* as applied — the documented approximation. The table must stay
// internally consistent: the reuse is refused, the applied count does not
// move, and fresh seqs above the floor still apply.
func TestDedupSeqReuseAfterEviction(t *testing.T) {
	d := NewDedup()
	// Apply odd seqs only, far past the window, so compaction evicts a set
	// with real holes in it.
	top := uint64(6 * dedupWindow)
	applied := uint64(0)
	for seq := uint64(1); seq <= top; seq += 2 {
		if !d.Apply("s", "src", seq) {
			t.Fatalf("seq %d rejected on first apply", seq)
		}
		applied++
	}
	before, _ := d.Applied("s")
	if before != applied {
		t.Fatalf("applied = %d, want %d", before, applied)
	}
	floor := d.streams["s"]["src"].floor
	if floor == 0 {
		t.Fatal("floor never advanced; test needs more samples than 2*window")
	}
	// An even seq below the floor was never applied, but the window can no
	// longer distinguish it: it must be refused (at-least-once side of the
	// approximation never double-applies).
	reuse := floor - 1 // even, never applied
	if reuse%2 != 0 {
		reuse--
	}
	if d.Apply("s", "src", reuse) {
		t.Errorf("seq %d below the floor admitted; window must treat evicted range as applied", reuse)
	}
	if after, _ := d.Applied("s"); after != before {
		t.Errorf("refused reuse moved applied count: %d -> %d", before, after)
	}
	// Above the floor the table still tracks exactly.
	if !d.Apply("s", "src", top+2) {
		t.Error("fresh seq above floor rejected")
	}
	if d.Apply("s", "src", top+2) {
		t.Error("fresh seq re-admitted")
	}
}

// TestDedupRestoreStaleSnapshotThenReplay models the crash-recovery path:
// a snapshot is cut, more batches are acked, the process dies and restores
// the *stale* snapshot, then the WAL replays everything after the snapshot
// — including batches the snapshot already covers. Each sample must land
// exactly once.
func TestDedupRestoreStaleSnapshotThenReplay(t *testing.T) {
	d := NewDedup()
	for seq := uint64(1); seq <= 10; seq++ {
		d.Apply("s", "src", seq)
	}
	snap := d.State() // snapshot covers 1..10
	for seq := uint64(11); seq <= 25; seq++ {
		d.Apply("s", "src", seq)
	}

	// Crash: the post-snapshot marks are lost; the stale snapshot restores.
	d2 := NewDedup()
	d2.Restore(snap)
	if n, _ := d2.Applied("s"); n != 10 {
		t.Fatalf("restored applied = %d, want 10", n)
	}

	// Replay overlaps the snapshot (WAL segments are reset only at
	// snapshot time, so replay legitimately re-offers 6..25).
	appliedByReplay := 0
	for seq := uint64(6); seq <= 25; seq++ {
		if d2.Apply("s", "src", seq) {
			appliedByReplay++
		}
	}
	if appliedByReplay != 15 {
		t.Errorf("replay applied %d samples, want exactly the 15 the snapshot missed", appliedByReplay)
	}
	if n, _ := d2.Applied("s"); n != 25 {
		t.Errorf("post-replay applied = %d, want 25", n)
	}
}

// TestDedupOutOfOrderArrival: keyed samples may arrive in any order (two
// cluster paths can race a client retry); every seq applies exactly once
// regardless of arrival order.
func TestDedupOutOfOrderArrival(t *testing.T) {
	d := NewDedup()
	order := []uint64{7, 2, 9, 1, 5, 3, 8, 4, 10, 6}
	for _, seq := range order {
		if !d.Apply("s", "src", seq) {
			t.Fatalf("seq %d rejected on first (out-of-order) apply", seq)
		}
	}
	for _, seq := range order {
		if d.Apply("s", "src", seq) {
			t.Fatalf("seq %d re-admitted", seq)
		}
	}
	if n, _ := d.Applied("s"); n != 10 {
		t.Errorf("applied = %d, want 10", n)
	}
	// Interleaved sources keep independent windows.
	if !d.Apply("s", "other", 5) {
		t.Error("other source's seq 5 rejected; windows must be per-source")
	}
}

// TestDedupStreamStateAndMerge exercises the handoff export/merge pair:
// merging a peer's coverage unions the windows and recomputes the applied
// count, and replay against the merged table cannot double-apply.
func TestDedupStreamStateAndMerge(t *testing.T) {
	// Node A applied 1..6 from srcX; node B applied 4..10 from srcX and
	// 1..3 from srcY (overlap 4..6 was acked on both sides of a failover).
	a := NewDedup()
	for seq := uint64(1); seq <= 6; seq++ {
		a.Apply("s", "srcX", seq)
	}
	b := NewDedup()
	for seq := uint64(4); seq <= 10; seq++ {
		b.Apply("s", "srcX", seq)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		b.Apply("s", "srcY", seq)
	}

	win, applied, ok := b.StreamState("s")
	if !ok || applied != 10 {
		t.Fatalf("StreamState: applied=%d ok=%v, want 10 true", applied, ok)
	}
	a.MergeStream("s", win)
	if n, _ := a.Applied("s"); n != 13 {
		t.Fatalf("merged applied = %d, want 13 (10 srcX + 3 srcY, overlap counted once)", n)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if a.Apply("s", "srcX", seq) {
			t.Errorf("srcX seq %d re-admitted after merge", seq)
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if a.Apply("s", "srcY", seq) {
			t.Errorf("srcY seq %d re-admitted after merge", seq)
		}
	}
	if !a.Apply("s", "srcX", 11) {
		t.Error("fresh seq rejected after merge")
	}

	// StreamState on an unknown stream reports absence.
	if _, _, ok := a.StreamState("ghost"); ok {
		t.Error("StreamState of unknown stream reported ok")
	}
}

// TestDedupMergeAfterCompaction: merging a peer window whose floor has
// advanced adopts the max floor and drops covered seqs; the recomputed
// count follows the floor+len formula both sides use.
func TestDedupMergeAfterCompaction(t *testing.T) {
	peer := NewDedup()
	top := uint64(3 * dedupWindow)
	for seq := uint64(1); seq <= top; seq++ {
		peer.Apply("s", "src", seq)
	}
	win, _, _ := peer.StreamState("s")
	if win["src"].Floor == 0 {
		t.Fatal("peer window floor never advanced")
	}

	local := NewDedup()
	local.Apply("s", "src", 1) // ancient local mark, covered by the peer's floor
	local.MergeStream("s", win)
	if n, _ := local.Applied("s"); n != top {
		t.Errorf("merged applied = %d, want %d", n, top)
	}
	if local.Apply("s", "src", 2) {
		t.Error("seq under the merged floor admitted")
	}
	if !local.Apply("s", "src", top+1) {
		t.Error("fresh seq rejected after floor merge")
	}
}

// TestDedupRevertSplitsFloor: a batch applied in order collapses into the
// floor, and withdrawing it — newest first, as predictd's failed-append path
// does, or oldest first — re-admits exactly its seqs.
func TestDedupRevertSplitsFloor(t *testing.T) {
	for _, newestFirst := range []bool{false, true} {
		d := NewDedup()
		for seq := uint64(1); seq <= 10; seq++ {
			d.Apply("s", "src", seq)
		}
		batch := []uint64{4, 5, 6, 7}
		if newestFirst {
			slices.Reverse(batch)
		}
		for _, seq := range batch {
			d.Revert("s", "src", seq)
		}
		if n, _ := d.Applied("s"); n != 6 {
			t.Errorf("newestFirst=%v: applied after revert = %d, want 6", newestFirst, n)
		}
		for seq := uint64(1); seq <= 10; seq++ {
			if got, want := d.Apply("s", "src", seq), seq >= 4 && seq <= 7; got != want {
				t.Errorf("newestFirst=%v: Apply(%d) after revert = %v, want %v", newestFirst, seq, got, want)
			}
		}
		if w := d.streams["s"]["src"]; w.floor != 10 || len(w.seqs) != 0 {
			t.Errorf("newestFirst=%v: window floor %d with %d explicit seqs, want 10 and none", newestFirst, w.floor, len(w.seqs))
		}
	}
}

// TestDedupPermanentHole: a source that never sends seq 1 keeps explicit
// seqs only until compaction bounds them; compaction then treats the hole as
// applied and the contiguous run above it collapses into the floor.
func TestDedupPermanentHole(t *testing.T) {
	d := NewDedup()
	top := uint64(3 * dedupWindow)
	for seq := uint64(2); seq <= top; seq++ {
		if !d.Apply("s", "src", seq) {
			t.Fatalf("seq %d rejected on first apply", seq)
		}
		if w := d.streams["s"]["src"]; len(w.seqs) > 2*dedupWindow {
			t.Fatalf("seq %d: %d explicit seqs, want at most %d", seq, len(w.seqs), 2*dedupWindow)
		}
	}
	if w := d.streams["s"]["src"]; w.floor != top || len(w.seqs) != 0 {
		t.Errorf("window floor %d with %d explicit seqs, want %d and none", w.floor, len(w.seqs), top)
	}
	if d.Apply("s", "src", 1) {
		t.Error("hole under the compacted floor admitted")
	}
	if n, _ := d.Applied("s"); n != top-1 {
		t.Errorf("applied = %d, want %d", n, top-1)
	}
}
