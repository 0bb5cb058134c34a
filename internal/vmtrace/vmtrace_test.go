package vmtrace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/timeseries"
)

func TestStandardTraceSetGeometry(t *testing.T) {
	ts := StandardTraceSet(1)
	for _, prof := range Profiles() {
		for _, m := range Metrics() {
			s, err := ts.Get(prof.VM, m)
			if err != nil {
				t.Fatal(err)
			}
			if s.Len() != prof.Samples {
				t.Errorf("%s/%s: %d samples, want %d", prof.VM, m, s.Len(), prof.Samples)
			}
			if s.Interval != prof.Interval {
				t.Errorf("%s/%s: interval %v, want %v", prof.VM, m, s.Interval, prof.Interval)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s/%s: %v", prof.VM, m, err)
			}
		}
	}
	if len(ts.All()) != 60 {
		t.Errorf("All returned %d traces, want 60", len(ts.All()))
	}
}

func TestTraceSetDeterministic(t *testing.T) {
	a := StandardTraceSet(42)
	b := StandardTraceSet(42)
	for _, vm := range VMs() {
		for _, m := range Metrics() {
			sa, _ := a.Get(vm, m)
			sb, _ := b.Get(vm, m)
			for i := range sa.Values {
				if sa.Values[i] != sb.Values[i] {
					t.Fatalf("%s/%s: not deterministic at %d", vm, m, i)
				}
			}
		}
	}
}

func TestTraceSetSeedSensitivity(t *testing.T) {
	a := StandardTraceSet(1)
	b := StandardTraceSet(2)
	sa, _ := a.Get(VM2, CPUUsedSec)
	sb, _ := b.Get(VM2, CPUUsedSec)
	same := true
	for i := range sa.Values {
		if sa.Values[i] != sb.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestTracesIndependentAcrossVMsAndMetrics(t *testing.T) {
	ts := StandardTraceSet(7)
	a, _ := ts.Get(VM2, CPUUsedSec)
	b, _ := ts.Get(VM4, CPUUsedSec)
	same := true
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("VM2 and VM4 CPU traces are identical")
	}
}

func TestIdleDevicesAreConstant(t *testing.T) {
	ts := StandardTraceSet(3)
	idleCells := []struct {
		vm VMID
		m  Metric
	}{
		{VM3, MemSwap}, {VM3, NIC2RX}, {VM3, NIC2TX}, {VM3, VD1Read}, {VM3, VD1Write},
		{VM5, NIC1RX}, {VM5, NIC1TX}, {VM5, VD2Read},
	}
	for _, c := range idleCells {
		s, err := ts.Get(c.vm, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if !s.IsConstant(0) {
			t.Errorf("%s/%s should be an idle (constant) trace", c.vm, c.m)
		}
	}
	// And a busy cell must not be constant.
	s, _ := ts.Get(VM2, NIC1RX)
	if s.IsConstant(0) {
		t.Error("VM2 NIC1_received should be bursty, not constant")
	}
}

func TestNonNegativityOfResourceTraces(t *testing.T) {
	ts := StandardTraceSet(5)
	for _, s := range ts.All() {
		for i, v := range s.Values {
			if v < 0 {
				t.Fatalf("%s[%d] = %g < 0", s.Name, i, v)
			}
		}
	}
}

func TestGetUnknown(t *testing.T) {
	ts := StandardTraceSet(1)
	if _, err := ts.Get("VM9", CPUUsedSec); err == nil {
		t.Error("accepted unknown VM")
	}
	if _, err := ts.Get(VM1, "bogus"); err == nil {
		t.Error("accepted unknown metric")
	}
}

func TestCPUTracesAreAutocorrelated(t *testing.T) {
	// The central premise (Dinda): CPU load is strongly correlated over
	// time, making history-based prediction feasible.
	ts := StandardTraceSet(11)
	for _, vm := range VMs() {
		s, _ := ts.Get(vm, CPUUsedSec)
		rho, err := timeseries.Autocorrelation(s.Values, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rho < 0.3 {
			t.Errorf("%s CPU lag-1 autocorrelation = %g, want >= 0.3", vm, rho)
		}
	}
}

func TestMemoryTracesAreSmootherThanNetwork(t *testing.T) {
	// Coefficient of step-to-step change: memory must be much smoother than
	// the bursty VNC network trace (the paper's smooth-vs-peaky contrast).
	ts := StandardTraceSet(13)
	roughness := func(v []float64) float64 {
		sd := timeseries.StdDev(v)
		if sd == 0 {
			return 0
		}
		var s float64
		for i := 1; i < len(v); i++ {
			s += math.Abs(v[i] - v[i-1])
		}
		return s / float64(len(v)-1) / sd
	}
	mem, _ := ts.Get(VM1, MemSize)
	net, _ := ts.Get(VM2, NIC1RX)
	if roughness(mem.Values) >= roughness(net.Values) {
		t.Errorf("memory roughness %g >= network roughness %g",
			roughness(mem.Values), roughness(net.Values))
	}
}

func TestBatchJobsLoadConservation(t *testing.T) {
	// Total integrated demand must roughly equal the sum of job durations
	// times their load (jobs that overrun the trace end are truncated, and
	// background load adds a floor, so check within a tolerant band).
	b := BatchJobs{
		TotalJobs: 50,
		Mix:       []JobClass{{Fraction: 1, MinDur: 30 * time.Minute, MaxDur: 30 * time.Minute, Load: 1}},
		Interval:  30 * time.Minute,
	}
	rng := rand.New(rand.NewSource(1))
	v := b.Generate(1000, rng)
	var total float64
	for _, x := range v {
		total += x
	}
	// 50 jobs × 1 sample × load 1 = 50 sample-units of demand.
	if total < 40 || total > 55 {
		t.Errorf("integrated batch demand = %g, want ≈50", total)
	}
}

func TestBatchJobsNonNegative(t *testing.T) {
	b := BatchJobs{TotalJobs: 310, Mix: PaperJobMix(), Interval: 30 * time.Minute, Background: 0.05, Jitter: 0.3}
	rng := rand.New(rand.NewSource(2))
	for _, x := range b.Generate(336, rng) {
		if x < 0 {
			t.Fatal("negative batch demand")
		}
	}
}

func TestPaperJobMixFractions(t *testing.T) {
	var sum float64
	for _, c := range PaperJobMix() {
		sum += c.Fraction
	}
	if math.Abs(sum-1) > 0.001 {
		t.Errorf("job mix fractions sum to %g", sum)
	}
}

func TestLoad15Shape(t *testing.T) {
	s := Load15(1)
	if s.Len() != 144 {
		t.Errorf("Load15 has %d samples, want 144 (12h at 5min)", s.Len())
	}
	if s.Name != "VM2_load15" {
		t.Errorf("name = %q", s.Name)
	}
	// A 15-minute load average is smooth: lag-1 autocorrelation high.
	rho, err := timeseries.Autocorrelation(s.Values, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.6 {
		t.Errorf("Load15 lag-1 autocorrelation = %g, want >= 0.6", rho)
	}
	for _, v := range s.Values {
		if v < 0 {
			t.Fatal("negative load average")
		}
	}
}

func TestPktInShape(t *testing.T) {
	s := PktIn(1)
	if s.Len() != 144 || s.Name != "VM2_PktIn" {
		t.Errorf("PktIn = %q with %d samples", s.Name, s.Len())
	}
	// Bursty: the trace must span a wide dynamic range.
	lo, hi := s.Values[0], s.Values[0]
	for _, v := range s.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 10*(lo+1) {
		t.Errorf("PktIn range [%g, %g] not bursty", lo, hi)
	}
}

func TestProcessGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		p    Process
	}{
		{"ARSource", ARSource{Phi: []float64{0.5}, Noise: 1, Mean: 10, Scale: 2}},
		{"OnOff", OnOff{POnToOff: 0.1, POffToOn: 0.1, OffLevel: 0, OnLevel: 10, Jitter: 1}},
		{"RandomSteps", RandomSteps{PJump: 0.05, LevelMin: 0, LevelMax: 10, Jitter: 0.1}},
		{"Spikes", Spikes{Rate: 0.1, Floor: 1, MagMin: 5, MagMax: 10, Decay: 0.5}},
		{"MeanReverting", MeanReverting{Reversion: 0.3, LevelDrift: 0.5, Noise: 1, Mean: 5}},
		{"Constant", Constant{Level: 3}},
		{"Sum", Sum{Constant{Level: 1}, Constant{Level: 2}}},
		{"ClampMin", ClampMin{P: ARSource{Phi: nil, Noise: 5}, Min: 0}},
	}
	for _, c := range cases {
		v := c.p.Generate(100, rng)
		if len(v) != 100 {
			t.Errorf("%s: %d samples", c.name, len(v))
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%s[%d] = %g", c.name, i, x)
				break
			}
		}
	}
	// Spot-check semantics.
	sum := Sum{Constant{Level: 1}, Constant{Level: 2}}.Generate(5, rng)
	for _, x := range sum {
		if x != 3 {
			t.Errorf("Sum = %g, want 3", x)
		}
	}
	cl := ClampMin{P: Constant{Level: -5}, Min: 0}.Generate(5, rng)
	for _, x := range cl {
		if x != 0 {
			t.Errorf("ClampMin = %g, want 0", x)
		}
	}
}
