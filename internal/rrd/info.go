package rrd

import (
	"fmt"
)

// Latest returns the most recent consolidated row for the given CF, or
// ErrNoRecentData when no row has completed yet.
//
// This is the "what is the resource doing right now" query the paper's
// resource manager issues between full profiler extractions.
func (r *RRD) Latest(cf CF) (Row, error) {
	var best *rra
	for _, a := range r.rras {
		if a.spec.CF != cf || a.filled == 0 {
			continue
		}
		// Prefer the finest resolution among archives with data.
		if best == nil || a.spec.Resolution(r.step) < best.spec.Resolution(r.step) {
			best = a
		}
	}
	if best == nil {
		return Row{}, fmt.Errorf("rrd: %s: %w", cf, ErrNoRecentData)
	}
	pos := (best.head - 1 + best.spec.Rows) % best.spec.Rows
	vals := make([]float64, len(best.ring[pos]))
	copy(vals, best.ring[pos])
	return Row{End: best.lastRowEnd, Values: vals}, nil
}

// ErrNoRecentData is returned by Latest before any row has consolidated.
var ErrNoRecentData = fmt.Errorf("rrd: no consolidated data yet")
