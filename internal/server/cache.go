package server

import (
	"sync"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// Snapshot is the latest serving state of one stream: the newest observation
// folded in, the newest forecast issued (when any), and the health rung and
// error the last step reported. It is the document GET /v1/forecast serves
// and the per-stream payload the predictd snapshot persists, which is why
// every field is exported and plainly encodable.
type Snapshot struct {
	// LastTS and LastValue describe the newest observation processed.
	LastTS    int64
	LastValue float64
	// Health is the fallback-ladder rung after the last step.
	Health core.Health
	// LastErr is the last step's error text ("" when the step forecast
	// cleanly); core.ErrNotReady during warm-up, core.ErrFailed when the
	// predictor is terminally failed.
	LastErr string
	// Pred is the newest successful forecast; valid only when HasPred is
	// true. PredTS is the caller timestamp tag of the sample that produced
	// it.
	Pred    core.Prediction
	PredTS  int64
	HasPred bool
}

// ResultCache holds the latest Snapshot per stream. The engine's shard
// workers write it through Record (wired as Config.OnResult); HTTP handlers
// read it through Latest and Each. Each stream has one cell, a Snapshot
// under its own mutex: Record updates the cell in place, so a step's
// fan-out allocates nothing once the stream is known, and readers copy the
// Snapshot out under the same lock, so they never see a half-written one.
type ResultCache struct {
	m sync.Map // stream id -> *cell
}

// cell is one stream's Snapshot and the lock that guards it.
type cell struct {
	mu sync.Mutex
	s  Snapshot
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{}
}

// cellOf returns the stream's cell, creating it on first use.
func (c *ResultCache) cellOf(id string) *cell {
	if v, ok := c.m.Load(id); ok {
		return v.(*cell)
	}
	v, _ := c.m.LoadOrStore(id, new(cell))
	return v.(*cell)
}

// Record folds one engine result into the stream's snapshot. It is safe to
// wire directly as engine.Config.OnResult.
func (c *ResultCache) Record(r engine.Result) {
	cl := c.cellOf(r.ID)
	cl.mu.Lock()
	s := &cl.s
	s.LastTS, s.LastValue, s.Health = r.TS, r.Value, r.Health
	if r.Err != nil {
		s.LastErr = r.Err.Error()
	} else {
		s.LastErr = ""
		s.Pred, s.PredTS, s.HasPred = r.Pred, r.TS, true
	}
	cl.mu.Unlock()
}

// Restore primes a stream's snapshot, the warm-restart path: a restarted
// predictd serves the previous run's latest forecasts before any new sample
// arrives.
func (c *ResultCache) Restore(id string, s Snapshot) {
	cl := c.cellOf(id)
	cl.mu.Lock()
	cl.s = s
	cl.mu.Unlock()
}

// Latest returns the stream's snapshot.
func (c *ResultCache) Latest(id string) (Snapshot, bool) {
	v, ok := c.m.Load(id)
	if !ok {
		return Snapshot{}, false
	}
	return v.(*cell).snapshot(), true
}

// Each calls f for every cached stream. Iteration order is unspecified.
func (c *ResultCache) Each(f func(id string, s Snapshot)) {
	c.m.Range(func(k, v any) bool {
		f(k.(string), v.(*cell).snapshot())
		return true
	})
}

// snapshot copies the cell's Snapshot under its lock.
func (cl *cell) snapshot() Snapshot {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.s
}
