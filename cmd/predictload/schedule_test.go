package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/wire"
)

func testSizes() sizes {
	return sizes{
		streams: 500, batch: batchSize, segments: 2, segFor: time.Second / 2, satFor: time.Second / 4,
		rate: 20000, readRate: 200,
	}
}

// satPrefix is how many saturation batches the tests draw.
const satPrefix = 100

// encodePlan renders everything a plan sends as bytes: every batch as its
// wire frame (stream, TS, value and idempotency key of each sample) with its
// due time, the first satPrefix saturation batches, every read, the segment
// bounds, the bulk sets and the reference streams.
func encodePlan(p *plan) []byte {
	var b bytes.Buffer
	var enc wire.Encoder
	var buf []wire.Sample
	dump := func(tag string, bs []batch) {
		for i, bt := range bs {
			buf = p.wireBatch(bt, buf)
			fmt.Fprintf(&b, "%s %d %d ", tag, i, bt.due)
			b.Write(enc.AppendBatch(nil, uint64(i), keySource, buf))
			b.WriteByte('\n')
		}
	}
	dump("warm0", p.warm[0])
	dump("warm1", p.warm[1])
	dump("open", p.open)
	dump("sat", drawSat(p, satPrefix))
	for _, r := range p.reads {
		fmt.Fprintf(&b, "read %d %d %d\n", r.due, r.kind, r.target)
	}
	fmt.Fprintf(&b, "segments %v %v\nbulk %v\nchecked %v\n", p.openSeg, p.readSeg, p.bulkSets, p.checked)
	return b.Bytes()
}

func drawSat(p *plan, n int) []batch {
	bs := make([]batch, n)
	for i := range bs {
		bs[i] = p.sat.batch()
	}
	return bs
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	a, b := encodePlan(newPlan(7, testSizes())), encodePlan(newPlan(7, testSizes()))
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different schedules")
	}
	if c := encodePlan(newPlan(8, testSizes())); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 produced the same schedule")
	}
}

func TestZipfRankFrequencies(t *testing.T) {
	sz := testSizes()
	sz.streams, sz.rate = 1000, 200000
	p := newPlan(3, sz)
	got := make([]float64, sz.streams) // by rank, which is the stream index
	var n float64
	for _, b := range p.open {
		for _, s := range b.samples {
			if !p.isProbe(s.stream) {
				got[s.stream]++
				n++
			}
		}
	}
	var h float64
	for r := 0; r < sz.streams; r++ {
		h += math.Pow(float64(r+1), -zipfS)
	}
	want := func(r int) float64 { return math.Pow(float64(r+1), -zipfS) / h }
	for r := 0; r < 10; r++ {
		if f := got[r] / n; math.Abs(f-want(r)) > 0.05*want(r) {
			t.Errorf("rank %d: frequency %.4f, Zipf(%.1f) wants %.4f ±5%%", r, f, zipfS, want(r))
		}
	}
	// The tail carries its share too: ranks 100 and up.
	var gotTail, wantTail float64
	for r := 100; r < sz.streams; r++ {
		gotTail += got[r] / n
		wantTail += want(r)
	}
	if math.Abs(gotTail-wantTail) > 0.05*wantTail {
		t.Errorf("ranks >= 100: frequency %.4f, want %.4f ±5%%", gotTail, wantTail)
	}
}

func TestStreamsKeepOneConnectionAndOrder(t *testing.T) {
	p := newPlan(5, testSizes())
	conn := map[int32]int{}
	for c, bs := range p.warm {
		for _, b := range bs {
			for _, s := range b.samples {
				if prev, ok := conn[s.stream]; ok && prev != c {
					t.Fatalf("stream %d is sent on connections %d and %d", s.stream, prev, c)
				}
				conn[s.stream] = c
			}
		}
	}
	if len(conn) != len(p.streams) {
		t.Fatalf("warm-up covers %d of %d streams", len(conn), len(p.streams))
	}
	// Each stream's samples go out in k order, without gaps, across the
	// warm-up, then the open-loop and saturation segments, which run one at
	// a time on one ingest connection each; the reference forecasts depend
	// on it.
	next := make([]int32, len(p.streams))
	check := func(bs []batch) {
		for _, b := range bs {
			for _, s := range b.samples {
				if s.k != next[s.stream] {
					t.Fatalf("stream %d: sample %d sent where %d is next", s.stream, s.k, next[s.stream])
				}
				next[s.stream]++
			}
		}
	}
	for c := range p.warm {
		check(p.warm[c])
	}
	check(p.open)
	check(drawSat(p, satPrefix))
}
