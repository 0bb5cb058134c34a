package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// stateHarness is the part of a daemon that snapshots persist: engine,
// latest-forecast cache, history rings and, in WAL mode, the dedup table.
type stateHarness struct {
	eng   *engine.Engine
	cache *server.ResultCache
	hist  *server.HistoryStore
	dedup *server.Dedup // nil in snapshot mode
	st    *snapStore
}

func newStateHarness(tb testing.TB, dir string, walMode bool) *stateHarness {
	tb.Helper()
	o := testOptions()
	st, err := openSnapStore(dir, fingerprintOptions(o), nil)
	if err != nil {
		tb.Fatal(err)
	}
	h := &stateHarness{cache: server.NewResultCache(), st: st}
	if h.hist, err = server.NewHistoryStore(server.HistoryConfig{}); err != nil {
		tb.Fatal(err)
	}
	if walMode {
		h.dedup = server.NewDedup()
	}
	h.eng, err = engine.New(engine.Config{
		Shards:     2,
		QueueDepth: 4096,
		Policy:     engine.Block,
		NewStream:  h.newStream,
		OnResult: func(r engine.Result) {
			h.cache.Record(r)
			h.hist.Record(r)
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { h.eng.Close() })
	return h
}

func (h *stateHarness) newStream(string) (*core.Online, error) {
	o := testOptions()
	return core.NewOnline(core.OnlineConfig{
		Predictor:    core.DefaultConfig(o.window),
		TrainSize:    o.trainSize,
		AuditWindow:  o.auditWin,
		MSEThreshold: o.threshold,
	})
}

func (h *stateHarness) save(tb testing.TB) {
	tb.Helper()
	if err := h.st.save(h.eng, h.cache, h.hist, h.dedup); err != nil {
		tb.Fatal(err)
	}
}

func (h *stateHarness) restore(logw io.Writer) (int, error) {
	return h.st.restore(h.eng, h.cache, h.hist, h.dedup, logw)
}

func stateStreamID(i int) string { return fmt.Sprintf("state/%04d", i) }

// feed ingests samples first..first+n-1 into streams 0..streams-1, keyed
// (source "src", seq = sample number) in WAL mode, and drains the engine.
func (h *stateHarness) feed(tb testing.TB, streams, first, n int) {
	tb.Helper()
	batch := make([]engine.Sample, 0, streams)
	for j := first; j < first+n; j++ {
		batch = batch[:0]
		for i := 0; i < streams; i++ {
			id := stateStreamID(i)
			if h.dedup != nil && !h.dedup.Apply(id, "src", uint64(j)) {
				continue
			}
			v := 10 + float64((i*7+j*13)%23) + 5*math.Sin(float64(j)/3)
			batch = append(batch, engine.Sample{ID: id, TS: int64(j), Value: v})
		}
		if _, err := h.eng.IngestBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	h.eng.Drain()
}

// captured returns every stream's persisted state as save would write it.
func (h *stateHarness) captured(tb testing.TB) map[string]server.StreamState {
	tb.Helper()
	out := map[string]server.StreamState{}
	h.eng.Each(func(id string, _ engine.StreamStats) { out[id] = server.StreamState{} })
	for id := range out {
		var err error
		if out[id], err = server.CaptureStream(h.eng, h.cache, h.hist, id, new(bytes.Buffer), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// writeFrame writes payload to path as one durable frame under magic.
func writeFrame(tb testing.TB, path, magic string, payload []byte) {
	tb.Helper()
	err := durable.WriteFileAtomic(path, func(w io.Writer) error {
		fw, err := durable.NewFrameWriter(w, magic)
		if err != nil {
			return err
		}
		if _, err := fw.Write(payload); err != nil {
			return err
		}
		return fw.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestSnapshotLARPRED1Quarantined: the whole-map LARPRED1 format of earlier
// releases is no longer read. An intact LARPRED1 file is quarantined like
// damage, and the daemon cold-starts with an empty dedup table.
func TestSnapshotLARPRED1Quarantined(t *testing.T) {
	dir := t.TempDir()
	src := newStateHarness(t, dir, true)
	src.feed(t, 3, 1, 25)
	// The LARPRED1 payload: one gob value of this shape.
	v1 := struct {
		Fingerprint string
		Streams     map[string]server.StreamState
		Dedup       server.DedupState
	}{src.st.fingerprint, src.captured(t), src.dedup.State()}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	path := src.st.path()
	writeFrame(t, path, "LARPRED1", payload.Bytes())

	dst := newStateHarness(t, dir, true)
	var log bytes.Buffer
	if n, err := dst.restore(&log); err != nil || n != 0 {
		t.Fatalf("restore = %d, %v; want a cold start", n, err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("LARPRED1 snapshot not quarantined: %v (log %q)", err, log.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("LARPRED1 snapshot still in place (%v)", err)
	}
	if s := dst.eng.EngineStats().Streams; s != 0 {
		t.Errorf("%d streams registered from a LARPRED1 snapshot", s)
	}
	if got := dst.dedup.State(); len(got.Streams) != 0 {
		t.Errorf("dedup table restored from a LARPRED1 snapshot: %+v", got)
	}
}

// TestSnapshotRoundTrip: LARPRED2 restores every stream's predictor, cache
// entry, history and the dedup table exactly, with zero streams too.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, streams := range []int{0, 5} {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			dir := t.TempDir()
			src := newStateHarness(t, dir, true)
			src.feed(t, streams, 1, 30)
			src.save(t)
			dst := newStateHarness(t, dir, true)
			if n, err := dst.restore(io.Discard); err != nil || n != streams {
				t.Fatalf("restore = %d, %v; want %d streams", n, err, streams)
			}
			if got, want := dst.captured(t), src.captured(t); !reflect.DeepEqual(got, want) {
				t.Error("restored stream state differs from the state saved")
			}
			if got, want := dst.dedup.State(), src.dedup.State(); !reflect.DeepEqual(got, want) {
				t.Errorf("restored dedup table = %+v, want %+v", got, want)
			}
		})
	}
}

// legacyStreamState and legacySnapRecord are verbatim copies of the
// per-stream snapshot record of releases before server.StreamState, renamed:
// gob matches fields by name, not by type name.
type legacyStreamState struct {
	Online  []byte
	Cache   server.Snapshot
	History server.HistoryState
}

type legacySnapRecord struct {
	ID    string
	State legacyStreamState
}

// TestSnapshotLegacyRecordRestores: a LARPRED2 file whose records were
// written with the legacy record types restores to the same forecast, bulk
// and history reads as the file save writes, in WAL and snapshot modes, and
// its history reads are the source daemon's.
func TestSnapshotLegacyRecordRestores(t *testing.T) {
	const streams = 4
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = stateStreamID(i)
	}
	var paths []string
	for _, id := range ids {
		esc := "/v1/forecast/" + url.PathEscape(id)
		paths = append(paths, esc, esc+"/history", esc+"/history?step=16")
	}
	paths = append(paths, "/v1/forecasts?streams="+strings.Join(ids, ","), "/v1/forecasts")
	// reads serves every path from h's stores, ETags included.
	reads := func(t *testing.T, h *stateHarness) map[string]string {
		t.Helper()
		cfg := server.Config{Engine: h.eng, Cache: h.cache, History: h.hist}
		if h.dedup != nil {
			cfg.Applied = h.dedup.Applied
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, p := range paths {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: HTTP %d: %s", p, rec.Code, rec.Body)
			}
			out[p] = rec.Header().Get("ETag") + " " + rec.Body.String()
		}
		return out
	}
	for _, walMode := range []bool{true, false} {
		t.Run(fmt.Sprintf("wal=%v", walMode), func(t *testing.T) {
			src := newStateHarness(t, t.TempDir(), walMode)
			src.feed(t, streams, 1, 40)
			src.save(t)

			hdr := snapHeader{Fingerprint: src.st.fingerprint, Streams: streams}
			if src.dedup != nil {
				hdr.Dedup = src.dedup.State()
			}
			var payload bytes.Buffer
			enc := gob.NewEncoder(&payload)
			if err := enc.Encode(&hdr); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				rec := legacySnapRecord{ID: id}
				var buf bytes.Buffer
				var err error
				src.eng.Do(id, func(o *core.Online) { err = o.SaveState(&buf) })
				if err != nil {
					t.Fatal(err)
				}
				rec.State.Online = buf.Bytes()
				rec.State.Cache, _ = src.cache.Latest(id)
				rec.State.History, _ = src.hist.State(id)
				if err := enc.Encode(&rec); err != nil {
					t.Fatal(err)
				}
			}
			legacyDir := t.TempDir()
			writeFrame(t, filepath.Join(legacyDir, "predictd.snap"), snapMagic, payload.Bytes())

			restored := func(dir string) map[string]string {
				h := newStateHarness(t, dir, walMode)
				if n, err := h.restore(io.Discard); err != nil || n != streams {
					t.Fatalf("restore from %s = %d, %v; want %d streams", dir, n, err, streams)
				}
				return reads(t, h)
			}
			legacy, current := restored(legacyDir), restored(src.st.dir)
			live := reads(t, src)
			for _, p := range paths {
				if legacy[p] != current[p] {
					t.Errorf("GET %s from the legacy file:\n%s\nfrom save's file:\n%s", p, legacy[p], current[p])
				}
				if strings.Contains(p, "/history") && legacy[p] != live[p] {
					t.Errorf("GET %s from the legacy file:\n%s\nfrom the source daemon:\n%s", p, legacy[p], live[p])
				}
			}
		})
	}
}

// TestSnapshotDamageColdStarts: a bit flip at any byte, header included, or
// a truncation at any length is quarantined and restores nothing.
func TestSnapshotDamageColdStarts(t *testing.T) {
	dir := t.TempDir()
	src := newStateHarness(t, dir, true)
	src.feed(t, 2, 1, 25)
	src.save(t)
	path := src.st.path()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dst := newStateHarness(t, dir, true)
	check := func(what string, damaged []byte) {
		t.Helper()
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := dst.restore(io.Discard)
		if err != nil || n != 0 {
			t.Fatalf("%s: restore = %d, %v; want a cold start", what, n, err)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("%s: not quarantined: %v", what, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: snapshot still in place (%v)", what, err)
		}
	}
	// The gob stream opens with the header, so its encoding alone gives
	// the header's extent in the file.
	var hdr bytes.Buffer
	err = gob.NewEncoder(&hdr).Encode(&snapHeader{Fingerprint: src.st.fingerprint, Dedup: src.dedup.State(), Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := len(snapMagic) + hdr.Len()
	// Every offset in the magic, the header and the footer, and a stride
	// through the records between them.
	for off := 0; off < len(good); off++ {
		if off >= headerEnd && off < len(good)-4 && off%97 != 0 {
			continue
		}
		damaged := bytes.Clone(good)
		damaged[off] ^= 1 << (off % 8)
		check(fmt.Sprintf("bit flip at byte %d of %d", off, len(good)), damaged)
		check(fmt.Sprintf("truncated to %d of %d bytes", off, len(good)), good[:off])
	}
	if s := dst.eng.EngineStats().Streams; s != 0 {
		t.Errorf("%d streams registered from damaged snapshots", s)
	}
	if got := dst.dedup.State(); len(got.Streams) != 0 {
		t.Errorf("dedup table restored from a damaged snapshot: %+v", got)
	}
}

// TestSnapshotFingerprintMismatchColdStarts: a snapshot from another
// configuration is left in place and restores nothing.
func TestSnapshotFingerprintMismatchColdStarts(t *testing.T) {
	dir := t.TempDir()
	src := newStateHarness(t, dir, true)
	src.feed(t, 3, 1, 25)
	src.save(t)
	dst := newStateHarness(t, dir, true)
	dst.st.fingerprint = "window=7 train=20 audit=6 threshold=2"
	var log bytes.Buffer
	if n, err := dst.restore(&log); err != nil || n != 0 {
		t.Fatalf("restore = %d, %v; want a cold start", n, err)
	}
	if !strings.Contains(log.String(), "different configuration") {
		t.Errorf("log %q does not name the configuration mismatch", log.String())
	}
	if _, err := os.Stat(dst.st.path()); err != nil {
		t.Errorf("snapshot from another configuration was moved: %v", err)
	}
	if got := dst.dedup.State(); len(got.Streams) != 0 {
		t.Errorf("dedup table restored across a fingerprint mismatch: %+v", got)
	}
}

// TestSnapshotUndecodableRecordFailsStartup: a frame whose checksum verifies
// but whose contents do not decode was written wrong. Restore fails naming
// the file and the record, and leaves the file where it is.
func TestSnapshotUndecodableRecordFailsStartup(t *testing.T) {
	src := newStateHarness(t, t.TempDir(), true)
	src.feed(t, 2, 1, 25)
	states := src.captured(t)
	encode := func(vals ...any) []byte {
		var b bytes.Buffer
		enc := gob.NewEncoder(&b)
		for _, v := range vals {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}
	fp := src.st.fingerprint
	rec0 := &snapRecord{ID: stateStreamID(0), State: states[stateStreamID(0)]}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"garbage record", append(encode(&snapHeader{Fingerprint: fp, Streams: 2}, rec0), "not a gob record"...),
			"record 1 of 2"},
		{"missing record", encode(&snapHeader{Fingerprint: fp, Streams: 2}, rec0), "record 1 of 2"},
		{"wrong record type", encode(&snapHeader{Fingerprint: fp, Streams: 1}, &snapHeader{}), "record 0 of 1"},
		{"extra record", encode(&snapHeader{Fingerprint: fp}, rec0), "more records"},
		{"trailing bytes", append(encode(&snapHeader{Fingerprint: fp, Streams: 1}, rec0), 0x7f), "after its last record"},
		{"garbage header", []byte("not a gob header"), "header"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "predictd.snap")
			writeFrame(t, path, snapMagic, c.payload)
			o := testOptions()
			o.stateDir, o.durability = dir, "wal"
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // a daemon that did start shuts down at once
			err := run(ctx, io.Discard, o)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("startup err = %v; want a failure naming %s and %q", err, path, c.want)
			}
			if _, serr := os.Stat(path); serr != nil {
				t.Errorf("snapshot moved: %v", serr)
			}
			if _, serr := os.Stat(path + ".corrupt"); !os.IsNotExist(serr) {
				t.Errorf("verified snapshot was quarantined (%v)", serr)
			}
		})
	}
}

// TestSnapshotRestoreErrors: a record whose predictor state does not load
// cold-starts that stream only, while a daemon that cannot build a stream
// fails startup instead of dropping every stream's trained state.
func TestSnapshotRestoreErrors(t *testing.T) {
	dir := t.TempDir()
	src := newStateHarness(t, dir, false)
	src.feed(t, 2, 1, 25)
	states := src.captured(t)
	bad := states[stateStreamID(1)]
	bad.Online = []byte("not a predictor state")
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	for _, v := range []any{
		&snapHeader{Fingerprint: src.st.fingerprint, Streams: 2},
		&snapRecord{ID: stateStreamID(0), State: states[stateStreamID(0)]},
		&snapRecord{ID: stateStreamID(1), State: bad},
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	writeFrame(t, src.st.path(), snapMagic, payload.Bytes())

	dst := newStateHarness(t, dir, false)
	var log bytes.Buffer
	if n, err := dst.restore(&log); err != nil || n != 1 {
		t.Fatalf("restore = %d, %v; want 1 stream and a cold start", n, err)
	}
	if !strings.Contains(log.String(), stateStreamID(1)+": cold starting") {
		t.Errorf("log %q does not name the cold-started stream", log.String())
	}

	down := newStateHarness(t, dir, false)
	eng, err := engine.New(engine.Config{Shards: 1, NewStream: func(string) (*core.Online, error) {
		return nil, errors.New("factory down")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	down.eng = eng
	if n, err := down.restore(io.Discard); err == nil || !strings.Contains(err.Error(), "factory down") {
		t.Fatalf("restore with a failing factory = %d, %v; want a startup failure", n, err)
	}
}

// liveHeapPeak samples the GC's live-heap figure until stop is closed and
// returns the largest value seen.
func liveHeapPeak(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				out <- peak
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return out
}

// TestSnapshotRestoreFootprint: restore holds one stream's encoded state at
// a time beside the engine it builds, so the live heap while it runs stays
// close to the live heap it leaves behind. A restore that holds the whole
// file or its whole decoded contents at once peaks far above that.
func TestSnapshotRestoreFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("warms 2,000 streams")
	}
	const streams = 2000
	dir := t.TempDir()
	// A subtest, so its cleanup releases the source daemon before the
	// restore is measured.
	t.Run("save", func(t *testing.T) {
		src := newStateHarness(t, dir, true)
		src.feed(t, streams, 1, 40)
		src.save(t)
	})
	dst := newStateHarness(t, dir, true)
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()

	var once sync.Once
	stop := make(chan struct{})
	defer once.Do(func() { close(stop) })
	peakc := liveHeapPeak(stop)
	n, err := dst.restore(io.Discard)
	once.Do(func() { close(stop) })
	if err != nil || n != streams {
		t.Fatalf("restore = %d, %v; want %d streams", n, err, streams)
	}
	peak := <-peakc
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	after := sample[0].Value.Uint64()
	ratio := float64(peak) / float64(after)
	t.Logf("live heap: peak %.1f MB during restore, %.1f MB after (ratio %.2f)",
		float64(peak)/(1<<20), float64(after)/(1<<20), ratio)
	// Streamed restore measures 1.03–1.04 here; holding the file and its
	// decoded map at once measured 3.0–3.1.
	const bound = 1.2
	if ratio > bound {
		t.Errorf("restore's live heap peaked at %.2f× what it leaves behind, want at most %.1f×", ratio, bound)
	}
	runtime.KeepAlive(dst)
}

// BenchmarkSnapshotRestore measures a warm restart of 5,000 streams from
// one snapshot; B/op is what the restore allocates, including the
// predictors it builds.
func BenchmarkSnapshotRestore(b *testing.B) {
	const streams = 5000
	dir := b.TempDir()
	src := newStateHarness(b, dir, true)
	src.feed(b, streams, 1, 40)
	src.save(b)
	src.eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := newStateHarness(b, dir, true)
		b.StartTimer()
		if n, err := dst.restore(io.Discard); err != nil || n != streams {
			b.Fatalf("restore = %d, %v", n, err)
		}
		b.StopTimer()
		dst.eng.Close()
		b.StartTimer()
	}
}
