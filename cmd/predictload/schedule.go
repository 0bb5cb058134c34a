package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// The load a run sends is a pure function of the seed and the workload's
// sizes: every stream, its value sequence, every batch, its keys and its due
// time. The open loop and the reads are generated before any timing starts.
// The saturation batches are an endless sequence drawn on demand, because how
// many a closed loop sends depends on the daemon's speed; every run draws the
// same sequence and stops at a different point. The daemon only ever sees the
// generated inputs.

const (
	// batchSize is the saturation batch size and most workloads' open-loop
	// batch size.
	batchSize = 64
	// warmBatch is the warm-up batch size; warm-up is bulk loading, so it
	// uses the largest batches the default -max-body admits comfortably.
	warmBatch = 1024
	// warmPerStream takes every stream past predictd's default -train 60 so
	// the measured phases step trained predictors.
	warmPerStream = 80
	// numProbes streams are sampled at probeHz each and followed over SSE
	// for freshness and forecast quality.
	numProbes = 64
	probeHz   = 10
	// zipfS is the stream-popularity skew of the ingest and read mixes.
	zipfS = 1.1
	// warmConns is how many binary connections the warm-up spreads over.
	warmConns = 2
	// bulkSets is how many fixed 100-stream sets the bulk reads cycle over,
	// so If-None-Match has a previous ETag to send.
	bulkSets    = 16
	bulkStreams = 100
	// refSeeded is how many seeded Zipf streams (besides the probes and the
	// hottest stream) are compared against the in-process reference.
	refSeeded = 32
	// keySource is the idempotency source every generated batch carries.
	keySource = "predictload"
)

// sample names one sample of the plan: the k-th (0-based) value of a stream.
// Its value, TS tag (k+1) and idempotency seq (k+1) all derive from it.
type sample struct {
	stream int32
	k      int32
}

// batch is one ingest batch. due is its send time as an offset from the
// phase start; closed-loop batches leave it zero.
type batch struct {
	due     time.Duration
	samples []sample
}

// readKind is one kind of read in the read mix.
type readKind uint8

const (
	readForecast readKind = iota // GET /v1/forecast/{stream}
	readBulk                     // GET /v1/forecasts?streams=<set> with If-None-Match
	readHistory                  // GET /v1/forecast/{stream}/history?step=16
)

// readOp is one scheduled read: a stream index, or a bulk set index.
type readOp struct {
	due    time.Duration
	kind   readKind
	target int32
}

// streamSpec is one stream of the plan: its ID and the trace it cycles,
// starting at offset.
type streamSpec struct {
	id     string
	values []float64
	offset int
	// variance of the trace, the denominator of the probes' NMSE.
	variance float64
}

func (s *streamSpec) value(k int32) float64 {
	return s.values[(s.offset+int(k))%len(s.values)]
}

// sizes are the knobs a workload or the smoke mode sets.
type sizes struct {
	streams  int           // Zipf streams (probes come on top)
	batch    int           // open-loop batch size; saturation uses batchSize
	segments int           // open-loop and saturation segments
	segFor   time.Duration // length of one open-loop segment
	satFor   time.Duration // length of one saturation segment
	rate     int           // open-loop ingest samples/s, probes included
	readRate int           // open-loop reads/s
	setups   int           // timed set-ups
	restarts int           // timed restarts
}

// plan is everything one run sends.
type plan struct {
	streams []streamSpec // Zipf streams by rank, then the probes
	nZipf   int
	warm    [warmConns][]batch
	// open holds the open-loop segments back to back: segment j is
	// open[openSeg[j]:openSeg[j+1]], and due times run on across segments,
	// so segment j starts at j*segFor. reads and readSeg are laid out the
	// same way.
	open    []batch
	openSeg []int
	reads   []readOp
	readSeg []int
	segFor  time.Duration
	// sat draws the saturation batches, continuing every stream's samples
	// after the open loop.
	sat      *satSource
	bulkSets [][]int32
	// checked lists the streams compared against the reference.
	checked []int32
}

// segments returns the number of open-loop segments.
func (p *plan) segments() int { return len(p.openSeg) - 1 }

// satSource is the endless saturation sequence: Zipf batches of batchSize.
type satSource struct {
	zipf *rand.Zipf
	next []int32 // per-stream next k
}

// batch draws the next saturation batch.
func (s *satSource) batch() batch {
	b := make([]sample, batchSize)
	for i := range b {
		st := int32(s.zipf.Uint64())
		b[i] = sample{stream: st, k: s.next[st]}
		s.next[st]++
	}
	return batch{samples: b}
}

// probe returns the stream index of probe p.
func (p *plan) probe(i int) int32 { return int32(p.nZipf + i) }

func (p *plan) isProbe(s int32) bool { return int(s) >= p.nZipf }

// probeIndex maps each probe's stream ID to its stream index.
func (p *plan) probeIndex() map[string]int32 {
	m := make(map[string]int32, numProbes)
	for i := 0; i < numProbes; i++ {
		m[p.streams[p.probe(i)].id] = p.probe(i)
	}
	return m
}

// traces returns the seed's standard trace set as [vm][metric] values.
func traces(seed int64) [][][]float64 {
	ts := vmtrace.StandardTraceSet(seed)
	out := make([][][]float64, len(vmtrace.VMs()))
	for i, vm := range vmtrace.VMs() {
		for _, m := range vmtrace.Metrics() {
			s, err := ts.Get(vm, m)
			if err != nil {
				panic(err) // the standard set has every (vm, metric) pair
			}
			out[i] = append(out[i], s.Values)
		}
	}
	return out
}

func variance(v []float64) float64 {
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	return sq / float64(len(v))
}

// traceSeed fixes the trace set, and stream n is always Zipf rank n, so
// runs with different seeds do the same kind of work: the hottest streams
// replay the same traces. The run's seed draws each Zipf stream's offset
// into its trace, the Zipf sequence and the read mix. The probes start at
// fixed offsets, so the forecast error they measure is the same for every
// seed and changes only when the predictors do.
const traceSeed = 1

// newPlan generates a run's complete schedule from the seed.
func newPlan(seed int64, sz sizes) *plan {
	tr := traces(traceSeed)
	metrics := vmtrace.Metrics()
	p := &plan{nZipf: sz.streams, segFor: sz.segFor}
	rng := rand.New(rand.NewSource(seed))
	// Stream n replays the trace of its metric on VM n mod 5. Idle devices'
	// traces are constant, which would leave the probes' NMSE without a
	// denominator; those streams take the next VM's trace, which is never
	// idle for the same metric.
	addStream := func(id string, n, m int, offset func(n int) int) {
		vm := n % len(tr)
		if variance(tr[vm][m]) == 0 {
			vm = (vm + 1) % len(tr)
		}
		v := tr[vm][m]
		p.streams = append(p.streams, streamSpec{
			id:       id,
			values:   v,
			offset:   offset(len(v)),
			variance: variance(v),
		})
	}
	for i := 0; i < sz.streams; i++ {
		n, m := i/len(metrics), i%len(metrics)
		addStream(fmt.Sprintf("vm%04d/%s", n, metrics[m]), n, m, rng.Intn)
	}
	for i := 0; i < numProbes; i++ {
		addStream(fmt.Sprintf("probe/%02d", i), i, (i*5)%len(metrics), func(n int) int { return i * n / numProbes })
	}

	zipf := rand.NewZipf(rng, zipfS, 1, uint64(sz.streams-1))
	pick := func() int32 { return int32(zipf.Uint64()) }

	next := make([]int32, len(p.streams)) // per-stream next k
	take := func(s int32) sample {
		k := next[s]
		next[s]++
		return sample{stream: s, k: k}
	}

	// Warm-up: warmPerStream samples per stream, round-robin so every
	// stream trains at about the same time; a stream's connection is fixed
	// by its index.
	var cur [warmConns][]sample
	for k := 0; k < warmPerStream; k++ {
		for s := range p.streams {
			c := s % warmConns
			cur[c] = append(cur[c], take(int32(s)))
			if len(cur[c]) == warmBatch {
				p.warm[c] = append(p.warm[c], batch{samples: cur[c]})
				cur[c] = nil
			}
		}
	}
	for c := range cur {
		if len(cur[c]) > 0 {
			p.warm[c] = append(p.warm[c], batch{samples: cur[c]})
		}
	}

	// Open loop, segment by segment: Zipf samples at an even spacing and
	// every probe at probeHz, merged by due time; a batch is due when its
	// last sample is, and a segment's last batch may be short.
	probeTotal := numProbes * probeHz
	zipfRate := max(sz.rate-probeTotal, 1)
	at := func(i, rate int) time.Duration {
		return time.Duration(float64(i) / float64(rate) * float64(time.Second))
	}
	for seg := 0; seg < sz.segments; seg++ {
		p.openSeg = append(p.openSeg, len(p.open))
		segStart := time.Duration(seg) * sz.segFor
		var open []sample
		var due time.Duration
		for i, j := 0, 0; ; {
			zt, pt := at(i, zipfRate), at(j, probeTotal)
			if zt >= sz.segFor && pt >= sz.segFor {
				break
			}
			if zt <= pt {
				due = zt
				open = append(open, take(pick()))
				i++
			} else {
				due = pt
				open = append(open, take(p.probe(j%numProbes)))
				j++
			}
			if len(open) == sz.batch {
				p.open = append(p.open, batch{due: segStart + due, samples: open})
				open = nil
			}
		}
		if len(open) > 0 {
			p.open = append(p.open, batch{due: segStart + due, samples: open})
		}
	}
	p.openSeg = append(p.openSeg, len(p.open))

	// Reads: 80% single-stream forecasts, 15% conditional bulk reads over
	// fixed sets, 5% consolidated history, all Zipf-skewed.
	p.bulkSets = make([][]int32, bulkSets)
	for i := range p.bulkSets {
		n := min(bulkStreams, sz.streams)
		for _, s := range rng.Perm(sz.streams)[:n] {
			p.bulkSets[i] = append(p.bulkSets[i], int32(s))
		}
	}
	for seg := 0; seg < sz.segments; seg++ {
		p.readSeg = append(p.readSeg, len(p.reads))
		for i := 0; ; i++ {
			t := at(i, sz.readRate)
			if t >= sz.segFor {
				break
			}
			op := readOp{due: time.Duration(seg)*sz.segFor + t}
			switch r := rng.Intn(100); {
			case r < 80:
				op.kind, op.target = readForecast, pick()
			case r < 95:
				op.kind, op.target = readBulk, int32(rng.Intn(bulkSets))
			default:
				op.kind, op.target = readHistory, pick()
			}
			p.reads = append(p.reads, op)
		}
	}
	p.readSeg = append(p.readSeg, len(p.reads))

	// Reference streams: every probe, the hottest stream (rank 0), and
	// refSeeded seeded Zipf streams.
	for i := 0; i < numProbes; i++ {
		p.checked = append(p.checked, p.probe(i))
	}
	seen := map[int32]bool{0: true}
	p.checked = append(p.checked, 0)
	for _, s := range rng.Perm(sz.streams) {
		if len(seen) > refSeeded || len(seen) == sz.streams {
			break
		}
		if !seen[int32(s)] {
			seen[int32(s)] = true
			p.checked = append(p.checked, int32(s))
		}
	}

	// Saturation comes last: it takes the seeded generator over, so nothing
	// drawn before depends on how far a run gets into it.
	p.sat = &satSource{zipf: zipf, next: next}
	return p
}
