package server

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// recordStores is the per-stream state a record stream moves: engine,
// cache, history rings and dedup table.
type recordStores struct {
	eng   *engine.Engine
	cache *ResultCache
	hist  *HistoryStore
	dedup *Dedup
}

func newRecordStores(tb testing.TB) *recordStores {
	tb.Helper()
	s := &recordStores{cache: NewResultCache(), hist: newHistory(tb, HistoryConfig{}), dedup: NewDedup()}
	var err error
	s.eng, err = engine.New(engine.Config{
		Shards:    1,
		NewStream: func(string) (*core.Online, error) { return newOnline(tb), nil },
		OnResult:  func(r engine.Result) { s.cache.Record(r); s.hist.Record(r) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.eng.Close() })
	return s
}

// captured is stream id's state and dedup coverage as a record carries it.
func (s *recordStores) captured(tb testing.TB, id string) StreamRecord {
	tb.Helper()
	rec := StreamRecord{ID: id}
	var err error
	rec.State, err = CaptureStream(s.eng, s.cache, s.hist, id, new(bytes.Buffer),
		func() { rec.Windows, rec.Applied, _ = s.dedup.StreamState(id) })
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// recordTestHeader opens the record streams these tests write.
type recordTestHeader struct{ Streams int }

// twoRecordStream is a valid record stream of two trained streams with
// dedup coverage, the offsets at which its header and each record end,
// and the stores it was written from.
func twoRecordStream(tb testing.TB) (stream []byte, ends []int, ids []string, src *recordStores) {
	tb.Helper()
	src = newRecordStores(tb)
	ids = []string{"rec/a", "rec/b"}
	for i, id := range ids {
		batch := make([]engine.Sample, 0, 30)
		for seq := 1; seq <= 25+5*i; seq++ {
			src.dedup.Apply(id, "src", uint64(seq))
			batch = append(batch, engine.Sample{ID: id, TS: int64(seq), Value: signal(seq) + float64(i)})
		}
		if _, err := src.eng.IngestBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	src.eng.Drain()
	var buf bytes.Buffer
	rw, err := NewRecordWriter(&buf, &recordTestHeader{Streams: len(ids)})
	if err != nil {
		tb.Fatal(err)
	}
	ends = append(ends, buf.Len())
	for _, id := range ids {
		if err := rw.WriteStream(src.eng, src.cache, src.hist, src.dedup, id); err != nil {
			tb.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends, ids, src
}

// readInto reads a record stream the way the warm handoff does, merging
// each record's windows and installing its state as soon as it decodes,
// and returns how many records reached the install.
func readInto(dst *recordStores, data []byte) (delivered int, hdr recordTestHeader, err error) {
	rr, err := durable.NewStreamReader[StreamRecord](bytes.NewReader(data), &hdr)
	if err != nil {
		return 0, hdr, err
	}
	err = rr.ReadRecords(hdr.Streams, func(rec *StreamRecord) error {
		delivered++
		dst.dedup.MergeStream(rec.ID, rec.Windows)
		// A predictor state that does not load installs nothing.
		InstallStream(dst.eng, dst.cache, dst.hist, rec.ID, rec.State)
		return nil
	})
	return delivered, hdr, err
}

// FuzzRecordReader feeds the shared record-stream reader arbitrary bytes,
// seeded with a valid two-record stream, its truncations and bit flips. It
// must never panic, and a read without error delivers exactly the records
// its header announces. The valid stream installs every record as it was
// written; a strict prefix of it fails after installing exactly the
// records it holds whole.
func FuzzRecordReader(f *testing.F) {
	valid, ends, ids, src := twoRecordStream(f)
	want := make([]StreamRecord, len(ids))
	for i, id := range ids {
		want[i] = src.captured(f, id)
	}
	f.Add(valid)
	for _, n := range []int{0, ends[0] - 1, ends[0], (ends[0] + ends[1]) / 2, ends[1], ends[2] - 1} {
		f.Add(valid[:n])
	}
	for _, off := range []int{1, ends[0] - 1, ends[0] + 40, ends[1] + 7, ends[2] - 2} {
		flipped := bytes.Clone(valid)
		flipped[off] ^= 0x24
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := newRecordStores(t)
		delivered, hdr, err := readInto(dst, data)
		if err == nil && delivered != hdr.Streams {
			t.Fatalf("read ended cleanly after %d records of %d", delivered, hdr.Streams)
		}
		if !bytes.HasPrefix(valid, data) {
			return
		}
		if cut := len(data) < len(valid); cut != (err != nil) {
			t.Fatalf("stream of %d of %d bytes: read error %v", len(data), len(valid), err)
		}
		whole := 0
		for _, end := range ends[1:] {
			if end <= len(data) {
				whole++
			}
		}
		if delivered != whole {
			t.Fatalf("cut at byte %d: %d records installed, want the %d it holds whole", len(data), delivered, whole)
		}
		for i, w := range want {
			if i < whole {
				if got := dst.captured(t, w.ID); !reflect.DeepEqual(got, w) {
					t.Fatalf("cut at byte %d: record %d installed differently from how it was written", len(data), i)
				}
				continue
			}
			_, installed := dst.eng.Stats(w.ID)
			_, merged := dst.dedup.Applied(w.ID)
			if installed || merged || dst.hist.Seq(w.ID) != 0 {
				t.Fatalf("cut at byte %d: partial record %d installed (engine %v, windows %v, history seq %d)",
					len(data), i, installed, merged, dst.hist.Seq(w.ID))
			}
		}
	})
}
