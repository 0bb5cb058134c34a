package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// TestMetricsEndpointServesPromText scrapes /metrics late in a chaos run
// (via the panicHook, which fires on every processing slice) and asserts
// the Prometheus exposition carries the daemon's full instrument set:
// per-pipeline forecast-source counters, classifier decisions, health
// transitions forced by the injected spikes, retrain/backoff state, the
// durability counters, and the forecast-latency histogram. It also checks
// the opt-in pprof handler is mounted.
func TestMetricsEndpointServesPromText(t *testing.T) {
	o := baseOptions(vmtrace.VM2, vmtrace.VM3)
	o.duration = 36 * time.Hour
	o.quiet = true
	// The spiked stream thrash-retrains until the breaker opens and the
	// pipeline degrades — that is what populates the health-transition and
	// degraded-forecast families.
	o.threshold = 1.0
	o.faultSpec = "spike:p=0.10,mag=20,add=10,on=VM3/CPU_usedsec"
	o.faultSeed = 99
	o.listen = "127.0.0.1:0"
	o.pprof = true
	o.stateDir = t.TempDir()
	o.snapEvery = 6 * time.Hour

	var addr string
	o.addrReady = func(a string) { addr = a }

	lastHour := int(o.duration/time.Hour) - 1
	var once sync.Once
	var body, ctype string
	var pprofStatus int
	o.panicHook = func(p *pipeline, hour int) {
		if hour < lastHour {
			return
		}
		once.Do(func() {
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
			if err != nil {
				t.Errorf("scrape /metrics: %v", err)
				return
			}
			defer resp.Body.Close()
			ctype = resp.Header.Get("Content-Type")
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("read /metrics: %v", err)
				return
			}
			body = string(b)

			pr, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
			if err != nil {
				t.Errorf("get /debug/pprof/: %v", err)
				return
			}
			pr.Body.Close()
			pprofStatus = pr.StatusCode
		})
	}

	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	if body == "" {
		t.Fatal("/metrics was never successfully scraped")
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain exposition", ctype)
	}
	if pprofStatus != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d with -pprof enabled, want 200", pprofStatus)
	}

	for _, want := range []string{
		// Forecasts by fallback-ladder source, labeled per pipeline.
		"# TYPE larpredictor_forecasts_total counter",
		`source="LAR"`,
		`pipeline="VM2/`,
		// Classifier decisions by expert.
		"larpredictor_classifier_decisions_total{",
		// Health-state machine: current rung and transition counts (the
		// spiked VM3 stream must have degraded by now).
		"# TYPE larpredictor_health_state gauge",
		"# TYPE larpredictor_health_transitions_total counter",
		`larpredictor_health_transitions_total{pipeline="VM3/CPU/CPU_usedsec"`,
		// Retrain attempts/failures and backoff state.
		"larpredictor_retrain_attempts_total{",
		"# TYPE larpredictor_retrain_backoff_observations gauge",
		"# TYPE larpredictor_breaker_open gauge",
		// Forecast-latency histogram with cumulative buckets.
		"# TYPE larpredictor_forecast_seconds histogram",
		"larpredictor_forecast_seconds_bucket{",
		`le="+Inf"`,
		// Per-stage tracer families.
		"# TYPE larpredictor_stage_seconds histogram",
		// Durability: snapshots committed during this run, recovery
		// registered (zero here — no crash preceded this run).
		"# TYPE larpredictor_snapshots_total counter",
		"# TYPE larpredictor_pipelines_recovered_total counter",
		// Agent and prediction-DB families.
		"larpredictor_monitor_samples_total",
		"larpredictor_preddb_predictions_total",
		"larpredictor_qa_audits_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// At least one snapshot committed before the scrape (snapEvery 6h,
	// scraped in hour 36).
	if strings.Contains(body, "larpredictor_snapshots_total 0\n") {
		t.Error("snapshot counter still zero at end of run")
	}
}

// TestMetricsEndpointWithoutPprof verifies pprof stays unmounted unless
// opted in, while /metrics and the status document share the mux.
func TestMetricsEndpointWithoutPprof(t *testing.T) {
	o := baseOptions(vmtrace.VM2)
	o.duration = 2 * time.Hour
	o.quiet = true
	o.listen = "127.0.0.1:0"
	o.addrReady = func(addr string) {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			t.Errorf("scrape /metrics: %v", err)
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(b), "larpredictor_monitor_samples_total") {
			t.Error("/metrics missing agent families before the run loop")
		}

		pr, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
		if err != nil {
			t.Errorf("get /debug/pprof/: %v", err)
			return
		}
		pr.Body.Close()
		// Without -pprof the path falls through to the status handler,
		// which serves the JSON document — the point is that no profiling
		// surface is exposed, which the Content-Type distinguishes.
		if ct := pr.Header.Get("Content-Type"); strings.Contains(ct, "text/html") {
			t.Errorf("/debug/pprof/ served pprof (Content-Type %q) without -pprof", ct)
		}
	}
	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}
