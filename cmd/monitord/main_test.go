package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// pipe returns the status for a key, or nil.
func (s *runSummary) pipe(key string) *PipeStatus {
	for i := range s.Pipes {
		if s.Pipes[i].Key == key {
			return &s.Pipes[i]
		}
	}
	return nil
}

// baseOptions mirrors the daemon's defaults on a short, single-VM run.
func baseOptions(vms ...vmtrace.VMID) options {
	return options{
		seed:      7,
		duration:  8 * time.Hour,
		vms:       vms,
		window:    5,
		trainSize: 60,
		auditWin:  12,
		threshold: 2.0,
	}
}

func TestRunShortSimulation(t *testing.T) {
	var buf bytes.Buffer
	// 8 simulated hours: enough consolidated samples (96) for the default
	// trainSize of 60, so predictions must flow.
	sum, err := run(&buf, baseOptions(vmtrace.VM2))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "monitord summary after 8h0m0s") {
		t.Errorf("missing summary:\n%s", out)
	}
	if !strings.Contains(out, "simulated hour  1") {
		t.Errorf("missing hourly progress:\n%s", out)
	}
	if sum.Predictions == 0 {
		t.Errorf("no predictions after 8 hours:\n%s", out)
	}
	if !strings.Contains(out, "scored predictions") {
		t.Errorf("missing per-pipeline audit:\n%s", out)
	}
	for _, p := range sum.Pipes {
		if p.Health != core.Healthy.String() {
			t.Errorf("%s: health %s on a fault-free run", p.Key, p.Health)
		}
	}
}

func TestRunQuietSuppressesProgress(t *testing.T) {
	var buf bytes.Buffer
	o := baseOptions(vmtrace.VM3)
	o.duration = 2 * time.Hour
	o.quiet = true
	if _, err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "simulated hour") {
		t.Error("quiet mode printed hourly progress")
	}
}

func TestRunUnknownVM(t *testing.T) {
	o := baseOptions(vmtrace.VMID("VM9"))
	o.duration = time.Hour
	o.quiet = true
	sum, err := run(io.Discard, o)
	if err != nil {
		t.Fatal(err) // the agent monitors it; the sampler reports misses
	}
	// An unknown VM yields no samples → no profiled rows → no predictions.
	if sum.Predictions != 0 {
		t.Errorf("unknown VM produced %d predictions", sum.Predictions)
	}
}

func TestRunRejectsBadFaultSpec(t *testing.T) {
	o := baseOptions(vmtrace.VM2)
	o.faultSpec = "tsunami:p=1"
	if _, err := run(io.Discard, o); err == nil {
		t.Fatal("run accepted an invalid fault spec")
	}
}

// TestSupervisorRecoversPanickingPipeline crashes one pipeline mid-run and
// checks the supervisor quarantines, restarts, and re-warms it while every
// other pipeline keeps flowing.
func TestSupervisorRecoversPanickingPipeline(t *testing.T) {
	o := baseOptions(vmtrace.VM2)
	o.duration = 14 * time.Hour
	o.quiet = true
	o.cooldown = 2 * time.Hour
	victim := "VM2/CPU/CPU_usedsec"
	o.panicHook = func(p *pipeline, hour int) {
		if hour == 1 && p.key.String() == victim {
			panic("injected test crash")
		}
	}
	var buf bytes.Buffer
	sum, err := run(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	ps := sum.pipe(victim)
	if ps == nil {
		t.Fatalf("no status for %s", victim)
	}
	if ps.Panics != 1 {
		t.Errorf("panics = %d, want 1", ps.Panics)
	}
	if ps.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", ps.Restarts)
	}
	// Restart at hour ~4, retrain by hour ~9 (60 consolidated samples):
	// the recycled pipeline must be producing forecasts again.
	if ps.Predictions == 0 {
		t.Error("victim pipeline issued no predictions after restart")
	}
	if ps.Health != core.Healthy.String() {
		t.Errorf("victim health = %s, want Healthy after recovery", ps.Health)
	}
	if !strings.Contains(buf.String(), "supervisor:") {
		t.Errorf("summary does not report the supervised restart:\n%s", buf.String())
	}
	// The crash stayed contained.
	for _, p := range sum.Pipes {
		if p.Key != victim && (p.Panics != 0 || p.Restarts != 0) {
			t.Errorf("%s: panics=%d restarts=%d leaked from the victim", p.Key, p.Panics, p.Restarts)
		}
	}
}

// TestStatusEndpointServesAndShutsDown polls the JSON status endpoint
// mid-run (via the addrReady hook) and verifies the listener is closed —
// not leaked — once the run ends.
func TestStatusEndpointServesAndShutsDown(t *testing.T) {
	o := baseOptions(vmtrace.VM2)
	o.duration = 2 * time.Hour
	o.quiet = true
	o.listen = "127.0.0.1:0"
	// The whole simulated run takes milliseconds of wall time, so poll the
	// endpoint synchronously from the ready hook (it runs on run's
	// goroutine, before the simulation loop starts).
	var liveAddr string
	var polled bool
	o.addrReady = func(addr string) {
		liveAddr = addr
		resp, err := http.Get(fmt.Sprintf("http://%s/", addr))
		if err != nil {
			t.Errorf("status endpoint: %v", err)
			return
		}
		defer resp.Body.Close()
		var doc struct {
			Samples int64 `json:"samples"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Errorf("decode status: %v", err)
			return
		}
		polled = true
	}

	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	if !polled {
		t.Fatal("status endpoint was never successfully polled")
	}
	addr := liveAddr
	// The run has returned; the graceful shutdown must have closed the
	// listener rather than leaking it.
	if conn, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		conn.Close()
		t.Error("status listener still accepting connections after run returned")
	}
}

func TestDeviceOf(t *testing.T) {
	cases := map[vmtrace.Metric]string{
		vmtrace.NIC1RX:     "NIC1",
		vmtrace.VD2Write:   "VD2",
		vmtrace.CPUUsedSec: "CPU",
		vmtrace.MemSize:    "Memory",
	}
	for m, want := range cases {
		if got := deviceOf(m); got != want {
			t.Errorf("deviceOf(%s) = %q, want %q", m, got, want)
		}
	}
}
