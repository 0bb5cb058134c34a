package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/tournament"
)

// newReference returns a predictor configured exactly as predictd's
// default model flags configure every stream (-window 5 -train 60 -audit 12
// -threshold 2 -tournament -drift). Fed the same values in the same order it
// must serve bit-identical forecasts.
func newReference(opts ...core.Option) (*core.Online, error) {
	return core.NewOnline(core.OnlineConfig{
		Predictor:    core.DefaultConfig(5),
		TrainSize:    60,
		AuditWindow:  12,
		MSEThreshold: 2.0,
		Tournament:   &tournament.Config{},
		Drift:        &tournament.DriftConfig{},
	}, opts...)
}

// reference steps a fresh reference predictor through the first n values of
// st and returns the forecast issued at every step (NaN where the step
// issued none).
func reference(st *streamSpec, n int32) ([]float64, error) {
	o, err := newReference()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for k := int32(0); k < n; k++ {
		pred, _, err := o.Step(st.value(k))
		out[k] = math.NaN()
		if err == nil {
			out[k] = pred.Value
		}
	}
	return out, nil
}

// references computes the reference forecast sequence of every checked
// stream from its acked sample count.
func references(p *plan, acked []int32) (map[int32][]float64, error) {
	refs := make(map[int32][]float64, len(p.checked))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(p.checked))
	for i, s := range p.checked {
		wg.Add(1)
		go func(i int, s int32) {
			defer wg.Done()
			r, err := reference(&p.streams[s], acked[s])
			errs[i] = err
			mu.Lock()
			refs[s] = r
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// lastForecast returns the newest forecast a reference sequence issued.
func lastForecast(ref []float64) (float64, bool) {
	for i := len(ref) - 1; i >= 0; i-- {
		if !math.IsNaN(ref[i]) {
			return ref[i], true
		}
	}
	return 0, false
}

// expectation is what the daemon's state must show for every stream.
type expectation struct {
	acked []int32 // samples acked, so history seq and (WAL) applied
	// processed is the engine's per-process step count: acked minus what a
	// snapshot restore brought in without stepping.
	processed []int32
	wal       bool
	refs      map[int32][]float64
	// allSeqs reads every stream's history seq, one request each; otherwise
	// only the reference streams' seqs are read.
	allSeqs bool
}

// mismatches collects verification failures, keeping the first few texts.
type mismatches struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (m *mismatches) addf(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	if len(m.first) < 5 {
		m.first = append(m.first, fmt.Sprintf(format, args...))
	}
}

func (m *mismatches) err() error {
	if m.n == 0 {
		return nil
	}
	return fmt.Errorf("%d state mismatches, first: %s", m.n, strings.Join(m.first, "; "))
}

// verifyState checks exactly-once on the daemon's state, not on dedup
// coverage: every stream's processed count (and, with a WAL, its applied
// count) and history seq equal what was acked, and the reference streams
// serve the reference's forecast bit for bit. clients are used in
// parallel, one connection each.
func verifyState(ctx context.Context, clients []*http.Client, base string, p *plan, want expectation) error {
	var m mismatches
	jobs := make(chan []int32)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for ids := range jobs {
				if err := verifyChunk(ctx, c, base, p, want, ids, &m); err != nil {
					m.addf("%v", err)
				}
			}
		}(c)
	}
	for lo := 0; lo < len(p.streams); lo += bulkChunk {
		hi := min(lo+bulkChunk, len(p.streams))
		ids := make([]int32, 0, hi-lo)
		for s := lo; s < hi; s++ {
			ids = append(ids, int32(s))
		}
		jobs <- ids
	}
	close(jobs)
	wg.Wait()
	return m.err()
}

// bulkChunk is predictd's default -max-bulk-streams.
const bulkChunk = 256

// verifyChunk checks one bulk read's worth of streams.
func verifyChunk(ctx context.Context, c *http.Client, base string, p *plan, want expectation, ids []int32, m *mismatches) error {
	names := make([]string, len(ids))
	byName := make(map[string]int32, len(ids))
	for i, s := range ids {
		names[i] = p.streams[s].id
		byName[names[i]] = s
	}
	var bulk server.BulkForecastsResponse
	if err := getJSON(ctx, c, base+"/v1/forecasts?streams="+url.QueryEscape(strings.Join(names, ",")), &bulk); err != nil {
		return err
	}
	for _, id := range bulk.Missing {
		m.addf("%s: unknown to the daemon", id)
	}
	for _, doc := range bulk.Streams {
		s := byName[doc.Stream]
		if got, exp := doc.Processed, uint64(want.processed[s]); got != exp {
			m.addf("%s: processed %d, want %d", doc.Stream, got, exp)
		}
		if got, exp := doc.Applied, uint64(want.acked[s]); want.wal && got != exp {
			m.addf("%s: applied %d, want %d", doc.Stream, got, exp)
		}
		if ref, ok := want.refs[s]; ok {
			exp, has := lastForecast(ref)
			switch {
			case !has && doc.Forecast != nil:
				m.addf("%s: serves a forecast the reference never issued", doc.Stream)
			case has && doc.Forecast == nil:
				m.addf("%s: serves no forecast, reference %v", doc.Stream, exp)
			case has && math.Float64bits(doc.Forecast.Value) != math.Float64bits(exp):
				m.addf("%s: forecast %v, reference %v", doc.Stream, doc.Forecast.Value, exp)
			}
		}
	}
	for _, s := range ids {
		ref, checked := want.refs[s]
		if !want.allSeqs && !checked {
			continue
		}
		limit := 1
		if checked {
			limit = historyConfig.RawRows
		}
		var h server.HistoryResponse
		if err := getJSON(ctx, c, fmt.Sprintf("%s/v1/forecast/%s/history?limit=%d", base, p.streams[s].id, limit), &h); err != nil {
			return err
		}
		if h.Seq != uint64(want.acked[s]) {
			m.addf("%s: history seq %d, want %d", p.streams[s].id, h.Seq, want.acked[s])
		}
		if checked {
			checkEntries(&p.streams[s], h.Entries, ref, m)
		}
	}
	return nil
}

// checkEntries compares a reference stream's raw history ring with what was
// sent and what the reference forecast: the value recorded at each seq must
// be the one sent as that seq, and the forecast issued there the
// reference's, bit for bit. Order errors that leave the latest forecast
// intact show up here.
func checkEntries(st *streamSpec, entries []server.HistoryEntry, ref []float64, m *mismatches) {
	for _, e := range entries {
		k := int32(e.Seq) - 1
		switch {
		case e.TS != int64(e.Seq) || int(k) >= len(ref):
			m.addf("%s: history seq %d holds sample %d", st.id, e.Seq, e.TS)
		case math.Float64bits(e.Actual) != math.Float64bits(st.value(k)):
			m.addf("%s: history seq %d holds value %v, sent %v", st.id, e.Seq, e.Actual, st.value(k))
		case e.HasNext != !math.IsNaN(ref[k]) || e.HasNext && math.Float64bits(e.Next) != math.Float64bits(ref[k]):
			m.addf("%s: history seq %d forecast %v, reference %v", st.id, e.Seq, e.Next, ref[k])
		}
	}
}

// getJSON GETs target and decodes a 200 body into doc.
func getJSON(ctx context.Context, c *http.Client, target string, doc any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d %s", target, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(doc)
}

// probeReport is what the SSE feed showed for the probes.
type probeReport struct {
	expected, received int
	gaps               int     // seq jumps within one probe's events
	nmse               float64 // mean over probes of mean abs_err² / variance
	mismatch           mismatches
}

// checkProbes matches the received SSE events against the probe samples
// acked after base (the warm-up): each must arrive once and carry the
// reference's forecast bit for bit.
func checkProbes(p *plan, events []sseEvent, base, acked []int32, refs map[int32][]float64) *probeReport {
	r := &probeReport{}
	index := p.probeIndex()
	for _, s := range index {
		r.expected += int(acked[s] - base[s])
	}
	last := map[int32]uint64{}
	sqErr := map[int32]float64{}
	nErr := map[int32]int{}
	for _, e := range events {
		if e.err != nil {
			r.mismatch.addf("undecodable SSE event: %v", e.err)
			continue
		}
		s, ok := index[e.ev.Stream]
		if !ok {
			r.mismatch.addf("SSE event for unsubscribed stream %q", e.ev.Stream)
			continue
		}
		k := int32(e.ev.Seq) - 1
		if e.ev.Seq <= last[s] {
			r.mismatch.addf("%s: SSE seq %d after %d", e.ev.Stream, e.ev.Seq, last[s])
			continue
		}
		if last[s] != 0 && e.ev.Seq != last[s]+1 {
			r.gaps++
		}
		last[s] = e.ev.Seq
		if k < base[s] || k >= acked[s] {
			r.mismatch.addf("%s: SSE seq %d outside the acked range (%d, %d]", e.ev.Stream, e.ev.Seq, base[s], acked[s])
			continue
		}
		r.received++
		if ref := refs[s]; int(k) < len(ref) {
			switch {
			case e.ev.Forecast == nil && !math.IsNaN(ref[k]):
				r.mismatch.addf("%s@%d: no forecast, reference %v", e.ev.Stream, e.ev.Seq, ref[k])
			case e.ev.Forecast != nil && math.Float64bits(e.ev.Forecast.Value) != math.Float64bits(ref[k]):
				r.mismatch.addf("%s@%d: forecast %v, reference %v", e.ev.Stream, e.ev.Seq, e.ev.Forecast.Value, ref[k])
			}
		}
		if e.ev.AbsErr != nil {
			sqErr[s] += *e.ev.AbsErr * *e.ev.AbsErr
			nErr[s]++
		}
	}
	var sum float64
	var n int
	for i := 0; i < numProbes; i++ { // in probe order, so the sum repeats bit for bit
		if s := p.probe(i); nErr[s] > 0 {
			sum += sqErr[s] / float64(nErr[s]) / p.streams[s].variance
			n++
		}
	}
	if n > 0 {
		r.nmse = sum / float64(n)
	}
	return r
}
