package vmtrace

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/acis-lab/larpredictor/internal/timeseries"
)

// Metric names the twelve vmkusage performance metrics of the paper's
// Table 2.
type Metric string

// The canonical metric set, in the paper's table order.
const (
	CPUUsedSec Metric = "CPU_usedsec"
	CPUReady   Metric = "CPU_ready"
	MemSize    Metric = "Memory_size"
	MemSwap    Metric = "Memory_swapped"
	NIC1RX     Metric = "NIC1_received"
	NIC1TX     Metric = "NIC1_transmitted"
	NIC2RX     Metric = "NIC2_received"
	NIC2TX     Metric = "NIC2_transmitted"
	VD1Read    Metric = "VD1_read"
	VD1Write   Metric = "VD1_write"
	VD2Read    Metric = "VD2_read"
	VD2Write   Metric = "VD2_write"
)

// Metrics lists all twelve metrics in table order.
func Metrics() []Metric {
	return []Metric{
		CPUUsedSec, CPUReady, MemSize, MemSwap,
		NIC1RX, NIC1TX, NIC2RX, NIC2TX,
		VD1Read, VD1Write, VD2Read, VD2Write,
	}
}

// VMID names one of the five traced virtual machines.
type VMID string

// The five VMs of the paper's §7.
const (
	VM1 VMID = "VM1" // web server, Globus GRAM/MDS, GridFTP, PBS head node
	VM2 VMID = "VM2" // Linux port-forwarding proxy for VNC sessions
	VM3 VMID = "VM3" // WindowsXP-based calendar
	VM4 VMID = "VM4" // web server, list server, Wiki server
	VM5 VMID = "VM5" // web server
)

// VMs lists the five VMs in paper order.
func VMs() []VMID { return []VMID{VM1, VM2, VM3, VM4, VM5} }

// Profile describes one VM's trace-collection parameters.
type Profile struct {
	VM          VMID
	Description string
	// Samples and Interval define the trace geometry: VM1 is 7 days at
	// 30-minute intervals (336 samples); the others are 24 hours at
	// 5-minute intervals (288 samples).
	Samples  int
	Interval time.Duration
}

// Profiles returns the five paper profiles.
func Profiles() []Profile {
	return []Profile{
		{VM: VM1, Description: "web server, Globus GRAM/MDS + GridFTP, PBS head node", Samples: 336, Interval: 30 * time.Minute},
		{VM: VM2, Description: "Linux port-forwarding proxy for VNC sessions", Samples: 288, Interval: 5 * time.Minute},
		{VM: VM3, Description: "WindowsXP based calendar", Samples: 288, Interval: 5 * time.Minute},
		{VM: VM4, Description: "web server, list server, Wiki server", Samples: 288, Interval: 5 * time.Minute},
		{VM: VM5, Description: "web server", Samples: 288, Interval: 5 * time.Minute},
	}
}

// traceStart anchors all generated traces at a fixed instant so trace
// timestamps — and hence CSV output — are reproducible.
var traceStart = time.Date(2006, 10, 2, 0, 0, 0, 0, time.UTC)

// TraceSet is the full five-VM × twelve-metric synthetic trace collection.
type TraceSet struct {
	seed   int64
	series map[VMID]map[Metric]*timeseries.Series
}

// StandardTraceSet generates the complete trace set for a base seed. Every
// (vm, metric) trace is an independent deterministic function of the seed.
func StandardTraceSet(seed int64) *TraceSet {
	ts := &TraceSet{seed: seed, series: make(map[VMID]map[Metric]*timeseries.Series)}
	for _, prof := range Profiles() {
		ts.series[prof.VM] = make(map[Metric]*timeseries.Series)
		for _, metric := range Metrics() {
			proc := processFor(prof.VM, metric, prof)
			rng := rand.New(rand.NewSource(subSeed(seed, string(prof.VM), string(metric))))
			values := proc.Generate(prof.Samples, rng)
			name := fmt.Sprintf("%s_%s", prof.VM, metric)
			ts.series[prof.VM][metric] = timeseries.New(name, traceStart, prof.Interval, values)
		}
	}
	return ts
}

// Seed returns the base seed the set was generated from.
func (ts *TraceSet) Seed() int64 { return ts.seed }

// Get returns the trace for one VM and metric.
func (ts *TraceSet) Get(vm VMID, metric Metric) (*timeseries.Series, error) {
	byMetric, ok := ts.series[vm]
	if !ok {
		return nil, fmt.Errorf("vmtrace: unknown VM %q", vm)
	}
	s, ok := byMetric[metric]
	if !ok {
		return nil, fmt.Errorf("vmtrace: unknown metric %q", metric)
	}
	return s, nil
}

// All returns every trace in deterministic (VM, metric) order.
func (ts *TraceSet) All() []*timeseries.Series {
	var out []*timeseries.Series
	for _, vm := range VMs() {
		for _, m := range Metrics() {
			out = append(out, ts.series[vm][m])
		}
	}
	return out
}

// subSeed derives a stable per-trace seed from the base seed and labels.
func subSeed(seed int64, labels ...string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// idle reports whether a (vm, metric) device is unused — the paper's NaN
// cells in Table 3: devices the workload never exercised, whose traces are
// exactly constant.
func idle(vm VMID, metric Metric) bool {
	switch vm {
	case VM3:
		switch metric {
		case MemSwap, NIC2RX, NIC2TX, VD1Read, VD1Write:
			return true
		}
	case VM5:
		switch metric {
		case NIC1RX, NIC1TX, VD2Read:
			return true
		}
	}
	return false
}

// regime intensity classes for the workload mixture. The paper's production
// traces mix all three: some metrics sit in one statistical regime for the
// whole day (stationary — a single expert dominates and the LARPredictor has
// nothing to exploit), some drift between regimes slowly (mild — the NWS
// cumulative selector locks onto a stale expert but the best single expert
// still beats per-window selection), and some switch hard between quiet and
// loud phases (strong — per-window selection beats every single expert).
const (
	regimeStationary = iota
	regimeMild
	regimeStrong
)

// quietLoud builds a QuietLoud process at a given mean scale and intensity.
// The demand-cycle period is given in samples (a day for the 5-minute
// traces).
func quietLoud(mean float64, period float64, intensity int) Process {
	switch intensity {
	case regimeMild:
		return QuietLoud{
			PQuietToLoud: 0.030, PLoudToQuiet: 0.035,
			MinDwell: 12, Attack: 4, MixDrift: 0.6,
			Mean: mean, Swing: 0.25 * mean, Period: period,
			QuietJitter: 0.005 * mean,
			LoudAmp:     0.30 * mean, LoudOffset: 0.60 * mean,
		}
	default: // regimeStrong
		return QuietLoud{
			PQuietToLoud: 0.030, PLoudToQuiet: 0.035,
			MinDwell: 16, Attack: 4, MixDrift: 0.6,
			Mean: mean, Swing: 0.20 * mean, Period: period,
			QuietJitter: 0.003 * mean,
			LoudAmp:     0.50 * mean, LoudOffset: 1.30 * mean,
		}
	}
}

// stationaryAR builds an autocorrelated single-regime process (AR's home
// turf, the paper's CPU finding).
func stationaryAR(mean, scale float64) Process {
	return ARSource{Phi: []float64{0.55, 0.25}, Noise: 1, Mean: mean, Scale: scale}
}

// processFor composes the stochastic process for one (vm, metric) trace.
// The shapes follow the paper's workload descriptions: VM1 is dominated by
// the PBS batch mix, VM2 by VNC sessions, VM3 is a near-idle desktop, VM4
// and VM5 are diurnal web servers. Memory metrics are step-wise (LAST
// territory), CPU metrics autocorrelated (AR territory), network and disk
// bursty — with the stationary/mild/strong regime mixture chosen per cell so
// the trace set reproduces Table 3's heterogeneity.
// intensityTable assigns each (vm, metric) cell its regime intensity. The
// mixture mirrors the paper's Table 3 heterogeneity: most cells switch
// regimes (that is what production consolidation hosts do and what gives the
// LARPredictor its wins), a band of cells is mild, and a residue is
// stationary AR/step/spike territory where a single expert rules unstarred.
var intensityTable = map[VMID]map[Metric]int{
	VM1: {
		CPUReady: regimeStrong, NIC1RX: regimeStrong, NIC1TX: regimeMild,
		NIC2RX: regimeStrong, NIC2TX: regimeStrong,
		VD1Read: regimeMild, VD1Write: regimeStrong, VD2Write: regimeMild,
	},
	VM2: {
		CPUUsedSec: regimeStrong, CPUReady: regimeStrong,
		MemSize: regimeStrong, MemSwap: regimeStrong,
		NIC1RX: regimeStrong, NIC1TX: regimeStrong, NIC2TX: regimeStrong,
		VD1Read: regimeStrong, VD1Write: regimeStrong, VD2Write: regimeMild,
	},
	VM3: {
		CPUUsedSec: regimeMild, CPUReady: regimeStrong,
		MemSize: regimeStrong,
		NIC1RX:  regimeStrong, NIC1TX: regimeStrong,
		VD2Read: regimeStrong, VD2Write: regimeMild,
	},
	VM4: {
		CPUUsedSec: regimeStrong, CPUReady: regimeStrong, MemSwap: regimeStrong,
		NIC1RX: regimeStrong, NIC1TX: regimeStrong,
		NIC2RX: regimeStrong, NIC2TX: regimeMild,
		VD1Read: regimeStrong, VD2Read: regimeStrong, VD2Write: regimeStrong,
	},
	// VM5 below.
	VM5: {
		CPUUsedSec: regimeStrong, CPUReady: regimeMild,
		MemSize: regimeStrong, MemSwap: regimeStrong,
		NIC2TX: regimeStrong, VD1Read: regimeMild, VD1Write: regimeStrong,
		VD2Write: regimeStrong,
	},
}

// meanTable gives each metric a characteristic scale in its native unit.
var meanTable = map[Metric]float64{
	CPUUsedSec: 20, CPUReady: 6,
	MemSize: 200e6, MemSwap: 16e6,
	NIC1RX: 180, NIC1TX: 150, NIC2RX: 60, NIC2TX: 70,
	VD1Read: 60, VD1Write: 90, VD2Read: 40, VD2Write: 45,
}

// processFor composes the stochastic process for one (vm, metric) trace.
// The shapes follow the paper's workload descriptions: VM1 is dominated by
// the PBS batch mix, VM2 by VNC sessions, VM3 is a near-idle desktop, VM4
// and VM5 are diurnal web servers. Memory on the batch/wiki hosts is
// step-wise (LAST territory), a few wandering-load devices are SW_AVG
// territory, the idle devices are the paper's NaN cells, and the rest carry
// the quiet/loud regime mixture from intensityTable.
func processFor(vm VMID, metric Metric, prof Profile) Process {
	if idle(vm, metric) {
		return Constant{Level: 0, Jitter: 0}
	}
	day := float64((24 * time.Hour) / prof.Interval) // samples per day
	// Demand-cycle period for the trend component: a few-hour load swing.
	cycle := day / 6
	if vm == VM1 {
		// 30-minute samples and a 16-sample prediction window: keep the
		// regime structure well above the window span.
		cycle = day
	}

	// Fixed-shape special cells first.
	switch {
	case vm == VM1 && metric == CPUUsedSec:
		// The PBS batch mix drives VM1's CPU (paper section 7).
		return ClampMin{P: Sum{
			BatchJobs{TotalJobs: 310, Mix: PaperJobMix(), Interval: prof.Interval, Background: 0.05, Jitter: 0.02},
			ARSource{Phi: []float64{0.6, 0.2}, Noise: 0.4, Mean: 0.2, Scale: 0.08},
		}, Min: 0}
	case (vm == VM1 || vm == VM4) && metric == MemSize:
		// Step-wise allocations: LAST's home turf.
		return RandomSteps{PJump: 0.02, LevelMin: 128e6, LevelMax: 512e6, Jitter: 1e5}
	case vm == VM1 && metric == MemSwap:
		return RandomSteps{PJump: 0.015, LevelMin: 0, LevelMax: 64e6, Jitter: 5e4}
	case vm == VM1 && metric == VD2Read,
		vm == VM5 && metric == NIC2RX:
		// Wandering-load devices: the paper's SW_AVG cells.
		return ClampMin{P: MeanReverting{Reversion: 0.25, LevelDrift: 1.0, Noise: 9, Mean: 60}, Min: 0}
	case vm == VM4 && metric == VD1Write:
		return ClampMin{P: MeanReverting{Reversion: 0.3, LevelDrift: 1.2, Noise: 10, Mean: 120}, Min: 0}
	}

	mean := meanTable[metric]
	if intensity, ok := intensityTable[vm][metric]; ok {
		q := quietLoud(mean, cycle, intensity).(QuietLoud)
		if vm == VM1 {
			// Scale dwell and ramps to the wider 16-sample window, and
			// keep the regime mix drift gentle enough that both halves of
			// any random split still see both regimes (the halved
			// transition rates make all-quiet halves likely otherwise).
			q.MinDwell *= 3
			q.Attack *= 2
			q.PQuietToLoud /= 2
			q.PLoudToQuiet /= 2
			q.MixDrift = 0.3
		}
		return ClampMin{P: q, Min: 0}
	}

	// Stationary residue: autocorrelated AR or spiky disk traffic.
	switch metric {
	case VD1Read, VD1Write, VD2Read, VD2Write:
		rate := 0.05
		if metric == VD1Write || metric == VD2Write {
			rate = 0.1
		}
		return ClampMin{P: Sum{
			Spikes{Rate: rate, Floor: 5, FloorJitter: 1, MagMin: 50, MagMax: 300, Decay: 0.4},
			ARSource{Phi: []float64{0.5, 0.2}, Noise: 1, Mean: 0, Scale: 4},
		}, Min: 0}
	default:
		return ClampMin{P: stationaryAR(mean, 0.15*mean), Min: 0}
	}
}

// Load15 generates the Figure 4 trace "VM2_load15": the CPU fifteen-minute
// load average of VM2 over a 12-hour period sampled every 5 minutes (144
// samples). A 15-minute load average is a heavily smoothed view of
// instantaneous demand, so the trace is built by exponentially smoothing a
// bursty demand process.
func Load15(seed int64) *timeseries.Series {
	const n = 144
	rng := rand.New(rand.NewSource(subSeed(seed, "VM2", "load15")))
	demand := ClampMin{P: Sum{
		OnOff{POnToOff: 0.1, POffToOn: 0.07, OffLevel: 0.1, OnLevel: 2.5, Jitter: 0.2},
		ARSource{Phi: []float64{0.6}, Noise: 1, Mean: 0.3, Scale: 0.15},
	}, Min: 0}.Generate(n, rng)
	// 15-minute EWMA over 5-minute samples (alpha ≈ 1 - exp(-5/15)).
	const alpha = 0.2835
	v := make([]float64, n)
	s := demand[0]
	for i, d := range demand {
		s = alpha*d + (1-alpha)*s
		v[i] = s
	}
	return timeseries.New("VM2_load15", traceStart, 5*time.Minute, v)
}

// PktIn generates the Figure 5 trace "VM2_PktIn": network packets received
// per second on VM2's VNC-facing interface, a bursty session-driven trace
// over the same 12-hour window as Load15.
func PktIn(seed int64) *timeseries.Series {
	const n = 144
	rng := rand.New(rand.NewSource(subSeed(seed, "VM2", "PktIn")))
	v := ClampMin{P: Sum{
		OnOff{POnToOff: 0.15, POffToOn: 0.1, OffLevel: 10, OnLevel: 900, Jitter: 60},
		Spikes{Rate: 0.05, MagMin: 200, MagMax: 1500, Decay: 0.2},
		ARSource{Phi: []float64{0.4}, Noise: 1, Mean: 20, Scale: 8},
	}, Min: 0}.Generate(n, rng)
	return timeseries.New("VM2_PktIn", traceStart, 5*time.Minute, v)
}
