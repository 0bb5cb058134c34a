// Package monitor simulates the paper's performance-monitoring pipeline
// (Figure 1): a monitoring agent in the VMM samples every guest VM's
// resource metrics once a minute — as VMware's vmkusage tool does — and the
// samples are consolidated into five-minute averages in a per-VM Round Robin
// Database. A profiler extracts the time series for a given [vmID, deviceID
// (encoded in the metric name), metric, time window] from the RRD, exactly
// the interface the LARPredictor consumes.
//
// Time is explicit: the agent is driven by a simulated clock so that whole
// days of monitoring replay in microseconds of test time.
package monitor

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/acis-lab/larpredictor/internal/rrd"
	"github.com/acis-lab/larpredictor/internal/timeseries"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// Errors returned by the pipeline.
var (
	ErrUnknownVM   = errors.New("monitor: unknown VM")
	ErrNoData      = errors.New("monitor: no data in requested window")
	ErrBadInterval = errors.New("monitor: invalid interval")
)

// Sampler supplies one instantaneous measurement for (vm, metric) at time t.
// ok=false marks the sample as missing (the RRD's heartbeat machinery turns
// prolonged gaps into unknown data).
type Sampler func(vm vmtrace.VMID, metric vmtrace.Metric, t time.Time) (value float64, ok bool)

// Config parameterizes an Agent.
type Config struct {
	// VMs to monitor, each with all canonical metrics.
	VMs []vmtrace.VMID
	// SampleInterval is the raw sampling cadence (vmkusage: 1 minute).
	SampleInterval time.Duration
	// ConsolidationInterval is the RRD base step (vmkusage: 5 minutes,
	// "updates its data every five minutes with an average of the
	// one-minute statistics").
	ConsolidationInterval time.Duration
	// Retention is how much consolidated history each VM's RRD keeps.
	Retention time.Duration
	// Start anchors the simulated clock.
	Start time.Time
}

// DefaultConfig mirrors the paper's collection setup for the given VMs:
// 1-minute samples, 5-minute averages, 14 days of retention.
func DefaultConfig(vms ...vmtrace.VMID) Config {
	return Config{
		VMs:                   vms,
		SampleInterval:        time.Minute,
		ConsolidationInterval: 5 * time.Minute,
		Retention:             14 * 24 * time.Hour,
		Start:                 time.Date(2006, 10, 2, 0, 0, 0, 0, time.UTC),
	}
}

// Agent is the simulated VMM monitoring agent plus its performance database.
// It is safe for concurrent use.
type Agent struct {
	mu      sync.Mutex
	cfg     Config
	sampler Sampler
	now     time.Time
	dbs     map[vmtrace.VMID]*rrd.RRD
	metrics []vmtrace.Metric
	samples int64
	met     *agentMetrics
}

// NewAgent builds the agent and one RRD per VM (one data source per metric,
// an AVERAGE archive at the consolidation interval, plus MAX at 1-hour
// resolution for capacity review).
func NewAgent(cfg Config, sampler Sampler) (*Agent, error) {
	if len(cfg.VMs) == 0 {
		return nil, fmt.Errorf("monitor: no VMs configured: %w", ErrUnknownVM)
	}
	if cfg.SampleInterval <= 0 || cfg.ConsolidationInterval <= 0 {
		return nil, fmt.Errorf("monitor: sample %v consolidation %v: %w",
			cfg.SampleInterval, cfg.ConsolidationInterval, ErrBadInterval)
	}
	if cfg.ConsolidationInterval%cfg.SampleInterval != 0 {
		return nil, fmt.Errorf("monitor: consolidation %v not a multiple of sample %v: %w",
			cfg.ConsolidationInterval, cfg.SampleInterval, ErrBadInterval)
	}
	if cfg.Retention < cfg.ConsolidationInterval {
		return nil, fmt.Errorf("monitor: retention %v below one step: %w", cfg.Retention, ErrBadInterval)
	}
	if sampler == nil {
		return nil, errors.New("monitor: nil sampler")
	}

	metrics := vmtrace.Metrics()
	step := int64(cfg.ConsolidationInterval / time.Second)
	rows := int(cfg.Retention / cfg.ConsolidationInterval)
	hourSteps := int(time.Hour / cfg.ConsolidationInterval)
	if hourSteps < 1 {
		hourSteps = 1
	}

	a := &Agent{
		cfg:     cfg,
		sampler: sampler,
		now:     cfg.Start,
		dbs:     make(map[vmtrace.VMID]*rrd.RRD, len(cfg.VMs)),
		metrics: metrics,
	}
	for _, vm := range cfg.VMs {
		sources := make([]rrd.DS, len(metrics))
		for i, m := range metrics {
			sources[i] = rrd.DS{
				Name:      string(m),
				Type:      rrd.Gauge,
				Heartbeat: 3 * int64(cfg.SampleInterval/time.Second),
				Min:       math.NaN(),
				Max:       math.NaN(),
			}
		}
		db, err := rrd.New(step, sources, []rrd.RRASpec{
			{CF: rrd.Average, XFF: 0.5, Steps: 1, Rows: rows},
			{CF: rrd.Max, XFF: 0.5, Steps: hourSteps, Rows: rows/hourSteps + 1},
		})
		if err != nil {
			return nil, fmt.Errorf("monitor: rrd for %s: %w", vm, err)
		}
		a.dbs[vm] = db
	}
	return a, nil
}

// Now returns the simulated clock.
func (a *Agent) Now() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.now
}

// Samples returns the total number of raw samples collected.
func (a *Agent) Samples() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.samples
}

// SaveVM serializes vm's round-robin database to w in the rrd persistence
// format, so a supervisor can checkpoint the agent one VM at a time.
func (a *Agent) SaveVM(vm vmtrace.VMID, w io.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	db, ok := a.dbs[vm]
	if !ok {
		return fmt.Errorf("monitor: %q: %w", vm, ErrUnknownVM)
	}
	err := db.Save(w)
	if a.met != nil {
		if err != nil {
			a.met.vmSaveErrors.Inc()
		} else {
			a.met.vmSaves.Inc()
		}
	}
	return err
}

// RestoreVM replaces vm's round-robin database with one previously written
// by SaveVM. The snapshot must match the agent's configuration — same step
// and same data sources — so a stale or foreign file cannot silently change
// what is being monitored. It leaves the clock alone: RestoreClock sets it
// from the same snapshot.
func (a *Agent) RestoreVM(vm vmtrace.VMID, r io.Reader) error {
	err := a.restoreVM(vm, r)
	if a.met != nil {
		if err != nil {
			a.met.vmRestoreErrors.Inc()
		} else {
			a.met.vmRestores.Inc()
		}
	}
	return err
}

func (a *Agent) restoreVM(vm vmtrace.VMID, r io.Reader) error {
	db, err := rrd.Load(r)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cur, ok := a.dbs[vm]
	if !ok {
		return fmt.Errorf("monitor: %q: %w", vm, ErrUnknownVM)
	}
	if db.Step() != cur.Step() {
		return fmt.Errorf("monitor: snapshot step %ds, agent step %ds: %w",
			db.Step(), cur.Step(), ErrBadInterval)
	}
	got, want := db.Sources(), cur.Sources()
	if len(got) != len(want) {
		return fmt.Errorf("monitor: snapshot has %d sources, agent %d: %w",
			len(got), len(want), ErrBadInterval)
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Type != want[i].Type {
			return fmt.Errorf("monitor: snapshot source %d is %s/%d, want %s/%d: %w",
				i, got[i].Name, got[i].Type, want[i].Name, want[i].Type, ErrBadInterval)
		}
	}
	a.dbs[vm] = db
	return nil
}

// RestoreClock sets the simulated clock and the cumulative raw-sample
// counter. Warm restart calls it with the values of the snapshot whose
// databases it restores.
func (a *Agent) RestoreClock(t time.Time, samples int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = t
	a.samples = samples
}

// Tick advances the simulated clock by one sample interval and collects one
// sample for every (vm, metric).
func (a *Agent) Tick() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = a.now.Add(a.cfg.SampleInterval)
	ts := a.now.Unix()
	for _, vm := range a.cfg.VMs {
		vals := make([]float64, len(a.metrics))
		for i, m := range a.metrics {
			v, ok := a.sampler(vm, m, a.now)
			if !ok {
				v = math.NaN()
			}
			vals[i] = v
		}
		if err := a.dbs[vm].Update(ts, vals...); err != nil {
			if a.met != nil {
				a.met.tickErrors.Inc()
			}
			return fmt.Errorf("monitor: update %s: %w", vm, err)
		}
		a.samples += int64(len(vals))
		if a.met != nil {
			a.met.samples.Add(uint64(len(vals)))
		}
	}
	if a.met != nil {
		a.met.ticks.Inc()
	}
	return nil
}

// Run advances the clock by d, ticking every sample interval, and returns
// the simulated time actually advanced. d is rounded DOWN to a whole number
// of sample intervals; the remainder is not simulated (a later Run call may
// pick it up by passing it again). A negative d is ErrBadInterval. On a tick
// error the duration advanced before the failure is returned alongside it.
func (a *Agent) Run(d time.Duration) (time.Duration, error) {
	if d < 0 {
		return 0, fmt.Errorf("monitor: negative run duration %v: %w", d, ErrBadInterval)
	}
	ticks := int(d / a.cfg.SampleInterval)
	for i := 0; i < ticks; i++ {
		if err := a.Tick(); err != nil {
			return time.Duration(i) * a.cfg.SampleInterval, err
		}
	}
	return time.Duration(ticks) * a.cfg.SampleInterval, nil
}

// Query selects a profiled time series: the paper's profiler interface
// ("The profiler retrieves the VM performance data, which are identified by
// vmID, deviceID, and a time window"). Device identity is encoded in the
// metric name (NIC1, VD2, ...), matching Table 1.
type Query struct {
	VM     vmtrace.VMID
	Metric vmtrace.Metric
	// Start and End bound the window (inclusive of rows ending within it).
	Start, End time.Time
	// CF selects the consolidation function (default Average).
	CF rrd.CF
}

// Profile extracts the consolidated series for a query. Interior unknown
// rows are forward-filled (a prediction pipeline needs a complete,
// equally-spaced series); leading unknowns are dropped. ErrNoData is
// returned when nothing usable remains.
func (a *Agent) Profile(q Query) (*timeseries.Series, error) {
	s, err := a.profile(q)
	if a.met != nil {
		a.met.profileQueries.Inc()
		if err != nil {
			a.met.profileErrors.Inc()
		}
	}
	return s, err
}

func (a *Agent) profile(q Query) (*timeseries.Series, error) {
	a.mu.Lock()
	db, ok := a.dbs[q.VM]
	a.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("monitor: %q: %w", q.VM, ErrUnknownVM)
	}
	idx := db.DSIndex(string(q.Metric))
	if idx < 0 {
		return nil, fmt.Errorf("monitor: %q has no metric %q: %w", q.VM, q.Metric, ErrNoData)
	}
	a.mu.Lock()
	res, err := db.Fetch(q.CF, q.Start.Unix(), q.End.Unix())
	a.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("monitor: fetch: %w", err)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("monitor: %s/%s [%s, %s]: %w", q.VM, q.Metric, q.Start, q.End, ErrNoData)
	}

	// Drop leading unknowns, forward-fill the rest.
	values := make([]float64, 0, len(res.Rows))
	var start time.Time
	var last float64
	started := false
	for _, row := range res.Rows {
		v := row.Values[idx]
		if !started {
			if math.IsNaN(v) {
				continue
			}
			started = true
			start = time.Unix(row.End, 0).UTC()
			last = v
		}
		if math.IsNaN(v) {
			v = last
		}
		last = v
		values = append(values, v)
	}
	if !started {
		return nil, fmt.Errorf("monitor: %s/%s: all rows unknown: %w", q.VM, q.Metric, ErrNoData)
	}
	name := fmt.Sprintf("%s_%s", q.VM, q.Metric)
	interval := time.Duration(res.Resolution) * time.Second
	return timeseries.New(name, start, interval, values), nil
}

// TraceSampler adapts a synthetic trace set into a Sampler: the measurement
// at time t is the trace value whose interval contains t. Times outside the
// trace's span report ok=false.
func TraceSampler(ts *vmtrace.TraceSet) Sampler {
	return func(vm vmtrace.VMID, metric vmtrace.Metric, t time.Time) (float64, bool) {
		s, err := ts.Get(vm, metric)
		if err != nil {
			return 0, false
		}
		idx := int(t.Sub(s.Start) / s.Interval)
		if idx < 0 || idx >= s.Len() {
			return 0, false
		}
		return s.At(idx), true
	}
}
