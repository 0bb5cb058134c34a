package timeseries

import (
	"fmt"
)

// Frame is a single prediction window paired with the observation that
// immediately follows it. The LARPredictor dataflow (paper Figure 3) frames a
// u-sample series into (u-m) windows of length m; window i covers samples
// [i, i+m) and its target is sample i+m.
type Frame struct {
	// Index is the position of the first sample of the window in the
	// source series.
	Index int
	// Window holds the m samples feeding the predictors.
	Window []float64
	// Target is the observed next value the predictors try to forecast.
	Target float64
}

// FrameSeries slices v into overlapping windows of length m, each paired
// with its next-value target. It returns len(v)-m frames. The window slices
// alias v — callers that mutate them must copy first.
func FrameSeries(v []float64, m int) ([]Frame, error) {
	if m < 1 {
		return nil, fmt.Errorf("timeseries: window size %d < 1", m)
	}
	if len(v) <= m {
		return nil, fmt.Errorf("timeseries: need > %d samples to frame with window %d, have %d: %w",
			m, m, len(v), ErrShort)
	}
	frames := make([]Frame, 0, len(v)-m)
	for i := 0; i+m < len(v); i++ {
		frames = append(frames, Frame{
			Index:  i,
			Window: v[i : i+m],
			Target: v[i+m],
		})
	}
	return frames, nil
}
