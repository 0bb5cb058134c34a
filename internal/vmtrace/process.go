// Package vmtrace synthesizes the virtual-machine resource-usage traces the
// paper's evaluation runs on. The originals — vmkusage measurements of five
// production VMs on a VMware ESX 2.5.2 host — are proprietary, so this
// package implements the closest synthetic equivalent: stochastic workload
// processes composed per VM and per metric so that the trace set exhibits
// the statistical regimes the paper's analysis depends on (autocorrelated
// peaky CPU load, step-wise memory allocations, bursty on/off network and
// disk traffic, near-idle devices, and regime changes over time).
//
// Every trace is a deterministic function of (base seed, VM, metric), so the
// experiment drivers and benchmarks are exactly reproducible.
package vmtrace

import (
	"math/rand"
)

// Process is a stochastic time-series generator. Generate draws n samples
// using the supplied source of randomness; implementations must consume
// randomness only from rng so composite processes stay reproducible.
type Process interface {
	Generate(n int, rng *rand.Rand) []float64
}

// ARSource is an autoregressive noise process with configurable mean and
// scale: the workhorse for CPU-style metrics that are strongly correlated
// over time (Dinda's host-load finding, paper §2).
type ARSource struct {
	// Phi holds the AR coefficients (Phi[0] multiplies the previous value).
	Phi []float64
	// Noise is the innovation standard deviation.
	Noise float64
	// Mean and Scale map the zero-mean process into metric units.
	Mean, Scale float64
}

// Generate implements Process.
func (a ARSource) Generate(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j, c := range a.Phi {
			if i-1-j >= 0 {
				s += c * v[i-1-j]
			}
		}
		v[i] = s + a.Noise*rng.NormFloat64()
	}
	out := make([]float64, n)
	for i, x := range v {
		out[i] = a.Mean + a.Scale*x
	}
	return out
}

// OnOff is a two-state burst source: it alternates between an idle level
// and a busy level with geometric dwell times, the classic model for
// packet-train network traffic and user-session activity.
type OnOff struct {
	// POnToOff and POffToOn are the per-sample transition probabilities.
	POnToOff, POffToOn float64
	// OffLevel and OnLevel are the state means; Jitter is the in-state
	// noise standard deviation.
	OffLevel, OnLevel, Jitter float64
}

// Generate implements Process.
func (o OnOff) Generate(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	on := rng.Float64() < 0.5
	for i := 0; i < n; i++ {
		if on {
			if rng.Float64() < o.POnToOff {
				on = false
			}
		} else if rng.Float64() < o.POffToOn {
			on = true
		}
		level := o.OffLevel
		if on {
			level = o.OnLevel
		}
		v[i] = level + o.Jitter*rng.NormFloat64()
	}
	return v
}

// RandomSteps holds a level for a geometrically distributed time, then jumps
// to a new level — the shape of memory-size traces, which move only when the
// guest balloons or an application (de)allocates.
type RandomSteps struct {
	// PJump is the per-sample probability of a level change.
	PJump float64
	// LevelMin and LevelMax bound the uniformly drawn levels.
	LevelMin, LevelMax float64
	// Jitter is a small per-sample noise so traces are not exactly constant.
	Jitter float64
}

// Generate implements Process.
func (r RandomSteps) Generate(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	level := r.LevelMin + rng.Float64()*(r.LevelMax-r.LevelMin)
	for i := 0; i < n; i++ {
		if rng.Float64() < r.PJump {
			level = r.LevelMin + rng.Float64()*(r.LevelMax-r.LevelMin)
		}
		v[i] = level + r.Jitter*rng.NormFloat64()
	}
	return v
}

// Spikes is a Poisson spike train over a quiet floor — disk I/O bursts from
// periodic flushes, cron jobs, and interactive storms.
type Spikes struct {
	// Rate is the per-sample spike probability.
	Rate float64
	// Floor is the quiescent level; FloorJitter its noise.
	Floor, FloorJitter float64
	// MagMin and MagMax bound the uniformly drawn spike magnitude.
	MagMin, MagMax float64
	// Decay carries a fraction of a spike into following samples
	// (0 = impulse, 0.5 = geometric tail).
	Decay float64
}

// Generate implements Process.
func (s Spikes) Generate(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	var carry float64
	for i := 0; i < n; i++ {
		carry *= s.Decay
		if rng.Float64() < s.Rate {
			carry += s.MagMin + rng.Float64()*(s.MagMax-s.MagMin)
		}
		v[i] = s.Floor + carry + s.FloorJitter*rng.NormFloat64()
	}
	return v
}

// MeanReverting is an Ornstein–Uhlenbeck-style process: heavy noise around a
// slowly wandering level. Window averages beat both last-value and global
// mean here, giving the SW_AVG expert traces it can win.
type MeanReverting struct {
	// Reversion in (0,1) pulls toward the wandering level each step.
	Reversion float64
	// LevelDrift is the random-walk step of the level itself.
	LevelDrift float64
	// Noise is the per-sample observation noise.
	Noise float64
	// Mean is the starting level.
	Mean float64
}

// Generate implements Process.
func (m MeanReverting) Generate(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	level := m.Mean
	x := m.Mean
	for i := 0; i < n; i++ {
		level += m.LevelDrift * rng.NormFloat64()
		x += m.Reversion*(level-x) + m.Noise*rng.NormFloat64()
		v[i] = x
	}
	return v
}

// QuietLoud is a two-regime workload: a *quiet* state where the metric
// tracks a slowly drifting level with small jitter (last-value prediction is
// nearly exact) and a *loud* state where heavy noise erupts around the level
// (a window average is the best one-step predictor, and last-value is the
// worst). Dwell times are geometric.
//
// This is the regime structure the paper's production traces exhibit — "the
// best prediction model for a specific type of resource of a given VM trace
// varies as a function of time" (§1, finding 3) — and it is what gives an
// adaptive per-window selector its edge over the NWS cumulative selector,
// which can only lock onto the single expert that is best on time-average.
type QuietLoud struct {
	// PQuietToLoud and PLoudToQuiet are per-sample transition probabilities.
	PQuietToLoud, PLoudToQuiet float64
	// Mean is the base level. Swing bounds a piecewise-linear demand trend
	// around it: the level ramps with a constant slope for a geometrically
	// distributed stretch, then picks a new random slope. Period sets the
	// mean stretch length in samples. The smooth trend is what separates
	// the experts in the quiet state: last-value prediction trails it by
	// one step while a window average lags by half a window and pays
	// quadratically for it — and slope breaks keep the trend from being a
	// stationary pattern a global AR fit can lock onto.
	Mean, Swing, Period float64
	// MinDwell is the minimum number of samples spent in a state before a
	// transition roll is allowed. Geometric dwell times alone produce many
	// one-sample regime blips that no window-based selector can act on;
	// real sessions and bursts have a natural minimum duration.
	MinDwell int
	// Attack is the number of samples over which the loud offset ramps in
	// on regime entry and decays on exit (0 = instantaneous). Real bursts
	// build up — connections pile on over minutes — and the ramp is what
	// lets a window-shape classifier see a regime change coming instead of
	// paying the full surprise jump.
	Attack int
	// MixDrift in [0,1) skews the loud-state occupancy across the trace:
	// the probability of entering the loud state ramps from
	// (1-MixDrift)·PQuietToLoud at the start to (1+MixDrift)·PQuietToLoud
	// at the end. Real daily traces do this — sessions pile up toward the
	// busy hours — and it is the nonstationarity that defeats selectors
	// that trust the whole history equally: the regime mix the NWS
	// cumulative selector averaged over is no longer the mix it faces.
	MixDrift float64
	// QuietJitter is the small noise amplitude in the quiet state.
	QuietJitter float64
	// LoudAmp is the heavy uniform ±noise amplitude in the loud state —
	// the regime where the window average wins and last-value pays the
	// full sample-to-sample swing.
	LoudAmp float64
	// LoudOffset raises the level while loud: activity bursts shift the
	// mean as well as the variance (an idle NIC jumps to a busy plateau,
	// not to zero-mean noise). The offset is what makes the regime visible
	// to a window-mean feature — the first principal component — so the
	// k-NN classifier can tell the regimes apart.
	LoudOffset float64
}

// Generate implements Process.
func (q QuietLoud) Generate(n int, rng *rand.Rand) []float64 {
	v, _ := q.GenerateLabeled(n, rng)
	return v
}

// GenerateLabeled is Generate plus the ground-truth regime sequence
// (loud[i] reports whether sample i was drawn in the loud state). The labels
// let tests and research code measure how well a window classifier recovers
// the latent regime — the quantity the LARPredictor's accuracy ultimately
// rests on.
func (q QuietLoud) GenerateLabeled(n int, rng *rand.Rand) (values []float64, loudAt []bool) {
	v := make([]float64, n)
	loudAt = make([]bool, n)
	loud := rng.Float64() < 0.5
	period := q.Period
	if period <= 0 {
		period = 48
	}
	// Piecewise-linear trend state.
	level := q.Mean
	newSlope := func() float64 {
		if period <= 1 {
			return 0
		}
		// A slope magnitude that traverses up to the full swing within one
		// stretch; the sign is random.
		return (2*rng.Float64() - 1) * 2 * q.Swing / period
	}
	slope := newSlope()
	intensity := 0.0
	if loud {
		intensity = 1
	}
	dwell := 0

	for i := 0; i < n; i++ {
		// Regime transitions, with the loud-entry rate drifting over the
		// trace.
		ramp := 1.0
		if n > 1 {
			ramp = 1 + q.MixDrift*(2*float64(i)/float64(n-1)-1)
		}
		dwell++
		if dwell >= q.MinDwell {
			if loud {
				if rng.Float64() < q.PLoudToQuiet {
					loud = false
					dwell = 0
				}
			} else if rng.Float64() < q.PQuietToLoud*ramp {
				loud = true
				dwell = 0
			}
		}

		// Trend evolution: follow the slope, bounce at the swing bounds,
		// occasionally break to a fresh slope.
		if rng.Float64() < 1/period {
			slope = newSlope()
		}
		level += slope
		if level > q.Mean+q.Swing {
			level = q.Mean + q.Swing
			slope = -absFloat(slope)
		} else if level < q.Mean-q.Swing {
			level = q.Mean - q.Swing
			slope = absFloat(slope)
		}

		// Loud intensity follows the regime with an attack/decay ramp.
		target := 0.0
		if loud {
			target = 1
		}
		if q.Attack > 0 {
			step := 1 / float64(q.Attack)
			if intensity < target {
				intensity += step
				if intensity > target {
					intensity = target
				}
			} else if intensity > target {
				intensity -= step
				if intensity < target {
					intensity = target
				}
			}
		} else {
			intensity = target
		}

		if intensity > 0 {
			v[i] = level + intensity*(q.LoudOffset+q.LoudAmp*(2*rng.Float64()-1))
		} else {
			v[i] = level + q.QuietJitter*rng.NormFloat64()
		}
		loudAt[i] = loud
	}
	return v, loudAt
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Constant is a flat line with optional jitter — the "NaN" device traces of
// the paper's Table 3, where a virtual device simply was not exercised.
type Constant struct {
	Level  float64
	Jitter float64
}

// Generate implements Process.
func (c Constant) Generate(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		v[i] = c.Level + c.Jitter*rng.NormFloat64()
	}
	return v
}

// Sum superimposes component processes sample-wise.
type Sum []Process

// Generate implements Process.
func (s Sum) Generate(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for _, p := range s {
		for i, x := range p.Generate(n, rng) {
			v[i] += x
		}
	}
	return v
}

// ClampMin floors every sample of the inner process — resource counters
// cannot go negative.
type ClampMin struct {
	P   Process
	Min float64
}

// Generate implements Process.
func (c ClampMin) Generate(n int, rng *rand.Rand) []float64 {
	v := c.P.Generate(n, rng)
	for i, x := range v {
		if x < c.Min {
			v[i] = c.Min
		}
	}
	return v
}
