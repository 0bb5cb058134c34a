package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/faults"
	"github.com/acis-lab/larpredictor/internal/preddb"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// durableOptions is a run short enough to be fast but long enough that the
// predictor trains (trainSize 24 = 2 simulated hours of consolidated rows)
// and forecasts for many hours on both sides of the crash point.
func durableOptions(dir string) options {
	o := baseOptions(vmtrace.VM2)
	o.duration = 12 * time.Hour
	o.trainSize = 24
	o.auditWin = 8
	o.quiet = true
	o.stateDir = dir
	o.snapEvery = 4 * time.Hour
	return o
}

func loadStatePreddb(t *testing.T, dir string) *preddb.DB {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "preddb.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := preddb.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCrashRecoveryResumesExactly kills the daemon mid-run, restarts it
// against the same state directory, and requires results identical to a run
// that never crashed. Recovery keeps no log of rows between snapshots: it
// resumes the deterministic simulation at the last snapshot's clock, so the
// table crashes before the first snapshot, right on one, and between them,
// with and without faults (chaosSpec touches VM3 only), and every case must
// reproduce the uncrashed prediction database record for record.
func TestCrashRecoveryResumesExactly(t *testing.T) {
	specs := []struct {
		name, faults string
	}{
		{"no-faults", ""},
		{"chaos", chaosSpec},
	}
	for _, spec := range specs {
		opts := func(dir string) options {
			o := durableOptions(dir)
			o.vms = []vmtrace.VMID{vmtrace.VM2, vmtrace.VM3}
			o.faultSpec = spec.faults
			o.faultSeed = 99
			return o
		}
		// Reference: the same options, never crashed, fresh state dir.
		cleanDir := t.TempDir()
		clean, err := run(io.Discard, opts(cleanDir))
		if err != nil {
			t.Fatal(err)
		}
		for _, crashHour := range []int{1, 4, 6, 11} {
			t.Run(fmt.Sprintf("%s/crash-hour-%d", spec.name, crashHour), func(t *testing.T) {
				crashDir := t.TempDir()
				o := opts(crashDir)
				o.crashAfterHours = crashHour
				if _, err := run(io.Discard, o); !errors.Is(err, errSimulatedCrash) {
					t.Fatalf("crash run returned %v, want errSimulatedCrash", err)
				}

				// Restart against the same state dir and finish the run.
				o.crashAfterHours = 0
				resumed, err := run(io.Discard, o)
				if err != nil {
					t.Fatal(err)
				}
				// A crash before the first snapshot leaves nothing to
				// restore: every pipeline starts cold and re-simulates from
				// the beginning.
				wantRecovery := recoveryRecovered
				if time.Duration(crashHour)*time.Hour < o.snapEvery {
					wantRecovery = recoveryCold
				}
				for _, p := range resumed.Pipes {
					if p.Recovery != wantRecovery {
						t.Errorf("%s: recovery %q, want %q", p.Key, p.Recovery, wantRecovery)
					}
				}
				if _, err := os.Stat(filepath.Join(crashDir, "wal")); !os.IsNotExist(err) {
					t.Errorf("state dir has a wal/ entry (stat err %v); recovery must need only snapshots", err)
				}
				assertSameRun(t, resumed, clean, crashDir, cleanDir)
			})
		}
	}
}

// assertSameRun requires a resumed run to match an uncrashed one: the same
// summary counts per pipeline and record-for-record identical prediction
// databases in their state directories.
func assertSameRun(t *testing.T, resumed, clean *runSummary, crashDir, cleanDir string) {
	t.Helper()
	if resumed.Samples != clean.Samples {
		t.Errorf("samples %d != %d", resumed.Samples, clean.Samples)
	}
	if resumed.Predictions != clean.Predictions {
		t.Errorf("predictions %d != %d", resumed.Predictions, clean.Predictions)
	}
	if resumed.Retrains != clean.Retrains {
		t.Errorf("retrains %d != %d (restart must not retrain)", resumed.Retrains, clean.Retrains)
	}
	for _, cp := range clean.Pipes {
		rp := resumed.pipe(cp.Key)
		if rp == nil {
			t.Fatalf("pipeline %s missing after recovery", cp.Key)
		}
		if rp.Predictions != cp.Predictions || rp.Retrains != cp.Retrains {
			t.Errorf("%s: predictions/retrains %d/%d != %d/%d",
				cp.Key, rp.Predictions, rp.Retrains, cp.Predictions, cp.Retrains)
		}
		if rp.Scored != cp.Scored || rp.ScoredMSE != cp.ScoredMSE {
			t.Errorf("%s: scored MSE %d/%.17g != %d/%.17g — forecasts diverged after restart",
				cp.Key, rp.Scored, rp.ScoredMSE, cp.Scored, cp.ScoredMSE)
		}
	}

	// Strongest check: the final prediction databases are record-for-record
	// identical — every observation and every forecast, bit for bit.
	dbA := loadStatePreddb(t, crashDir)
	dbB := loadStatePreddb(t, cleanDir)
	keysA, keysB := dbA.Keys(), dbB.Keys()
	if len(keysA) == 0 || len(keysA) != len(keysB) {
		t.Fatalf("key counts differ: %d vs %d", len(keysA), len(keysB))
	}
	wide := time.Unix(1<<40, 0)
	for _, k := range keysB {
		ra := dbA.Range(k, time.Unix(0, 0), wide)
		rb := dbB.Range(k, time.Unix(0, 0), wide)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d records vs %d", k, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s record %d: %+v != %+v", k, i, ra[i], rb[i])
			}
		}
	}
}

// TestCorruptSnapshotQuarantined flips a bit in one pipeline's snapshot and
// checks that only that pipeline cold-starts: the file is renamed aside,
// the other pipelines recover, and the daemon keeps running.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.duration = 6 * time.Hour
	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "pipe", "*.lar"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("pipe snapshots: %v (err %v)", snaps, err)
	}
	victim := snaps[0]
	if err := faults.FlipBit(victim, -10, 3); err != nil {
		t.Fatal(err)
	}

	// Resume for two more hours against the damaged state dir.
	o.duration = 8 * time.Hour
	sum, err := run(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
	wantKey := filepath.Base(victim)
	quarantined, recovered := 0, 0
	for _, p := range sum.Pipes {
		switch p.Recovery {
		case recoveryQuarantined:
			quarantined++
		case recoveryRecovered:
			recovered++
		}
	}
	if quarantined != 1 {
		t.Errorf("%d pipelines quarantined, want exactly 1 (victim %s)", quarantined, wantKey)
	}
	if recovered != len(sum.Pipes)-1 {
		t.Errorf("%d of %d pipelines recovered", recovered, len(sum.Pipes)-1)
	}
}

// TestStateDirFingerprintMismatch: a state dir written under one workload
// configuration refuses to warm-restart under another instead of silently
// mixing incompatible state.
func TestStateDirFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.duration = 3 * time.Hour
	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	o.seed++
	if _, err := run(io.Discard, o); err == nil {
		t.Fatal("run with mismatched fingerprint succeeded")
	}
}

// TestCompletedRunExtendsFromState: a finished run leaves a final snapshot;
// rerunning with a longer -duration picks up where it ended.
func TestCompletedRunExtendsFromState(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.duration = 6 * time.Hour
	first, err := run(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	o.duration = 9 * time.Hour
	second, err := run(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if second.Samples <= first.Samples {
		t.Errorf("extension did not advance: %d -> %d samples", first.Samples, second.Samples)
	}
	for _, p := range second.Pipes {
		if p.Recovery != recoveryRecovered {
			t.Errorf("%s: recovery %q on extension", p.Key, p.Recovery)
		}
	}
}
