package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/monitor"
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

// readRecords passes each record of the snapshot data to fn, whatever its
// header.
func readRecords(t *testing.T, data []byte, fn func(*snapRecord) error) {
	t.Helper()
	hdr, sr, err := openSnapshot(bytes.NewReader(data))
	if err == nil {
		err = sr.ReadRecords(hdr.Records, fn)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// loadStatePreddb loads the prediction DB record of dir's snapshot.
func loadStatePreddb(t *testing.T, dir string) *preddb.DB {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	var db *preddb.DB
	readRecords(t, data, func(rec *snapRecord) error {
		if rec.Name != preddbRecord {
			return nil
		}
		var err error
		db, err = preddb.Load(bytes.NewReader(rec.Frame))
		return err
	})
	if db == nil {
		t.Fatalf("%s holds no prediction DB record", dir)
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
	for _, spec := range crashSpecs {
		opts := func(dir string) options { return crashOptions(dir, spec.faults) }
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

// crashSpecs are the fault specs the crash tests run under; chaosSpec
// touches VM3 only.
var crashSpecs = []struct{ name, faults string }{
	{"no-faults", ""},
	{"chaos", chaosSpec},
}

// crashOptions is the crash tests' run: VM2 and VM3 under faultSpec.
func crashOptions(dir, faultSpec string) options {
	o := durableOptions(dir)
	o.vms = []vmtrace.VMID{vmtrace.VM2, vmtrace.VM3}
	o.faultSpec = faultSpec
	o.faultSeed = 99
	return o
}

// TestCrashTornSnapshotResumesExactly tears a snapshot at every write
// boundary. It takes the state directory as the 4 h snapshot left it and
// as the 8 h snapshot left it, and lays the files the 8 h snapshot wrote
// (in the order they were written: by modification time, then name, since
// a coarse file-system clock can tie them) over the 4 h state one at a
// time. Before each file it also tries the crash inside that file's atomic
// write, which leaves a temp file cut in half beside it. Whatever prefix a
// crash left behind, the resumed run must match an uncrashed one, sample
// count included.
func TestCrashTornSnapshotResumesExactly(t *testing.T) {
	for _, spec := range crashSpecs {
		opts := func(dir string) options { return crashOptions(dir, spec.faults) }
		cleanDir := t.TempDir()
		clean, err := run(io.Discard, opts(cleanDir))
		if err != nil {
			t.Fatal(err)
		}
		stateAt := func(hour int) string {
			dir := t.TempDir()
			o := opts(dir)
			o.crashAfterHours = hour
			if _, err := run(io.Discard, o); !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("crash run returned %v, want errSimulatedCrash", err)
			}
			return dir
		}
		before, after := stateAt(4), stateAt(8)
		written := writtenFiles(t, before, after)
		if len(written) == 0 {
			t.Fatal("the 8 h snapshot wrote no file the 4 h state lacks")
		}
		for k := 0; k <= len(written); k++ {
			for _, torn := range []bool{true, false} {
				if torn && k == len(written) {
					continue
				}
				name := fmt.Sprintf("%s/files-%d-of-%d", spec.name, k, len(written))
				if torn {
					name += "/torn-temp"
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					copyFiles(t, before, dir, nil)
					copyFiles(t, after, dir, written[:k])
					if torn {
						rel := written[k]
						data, err := os.ReadFile(filepath.Join(after, rel))
						if err != nil {
							t.Fatal(err)
						}
						tmp := filepath.Join(dir, filepath.Dir(rel), "."+filepath.Base(rel)+".tmp-torn")
						if err := os.WriteFile(tmp, data[:len(data)/2], 0o644); err != nil {
							t.Fatal(err)
						}
					}
					resumed, err := run(io.Discard, opts(dir))
					if err != nil {
						t.Fatal(err)
					}
					assertSameRun(t, resumed, clean, dir, cleanDir)
				})
			}
		}
	}
}

// writtenFiles lists the regular files under after whose content differs
// from the same path under before, in the order they were written: by
// modification time, then by name.
func writtenFiles(t *testing.T, before, after string) []string {
	t.Helper()
	type file struct {
		rel string
		mod time.Time
	}
	var files []file
	err := filepath.WalkDir(after, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(after, path)
		if err != nil {
			return err
		}
		now, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if was, err := os.ReadFile(filepath.Join(before, rel)); err == nil && bytes.Equal(was, now) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files = append(files, file{rel, info.ModTime()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	rels := make([]string, len(files))
	for i, f := range files {
		rels[i] = f.rel
	}
	return rels
}

// copyFiles copies the files rels (every regular file, when rels is nil)
// from the tree src to the same paths under dst.
func copyFiles(t *testing.T, src, dst string, rels []string) {
	t.Helper()
	if rels == nil {
		err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return err
			}
			rel, err := filepath.Rel(src, path)
			rels = append(rels, rel)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, rel := range rels {
		data, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		to := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			t.Fatal(err)
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

// TestCorruptSnapshotQuarantined flips a bit in the payload of one
// pipeline's record and checks that only that pipeline cold-starts: the
// other pipelines recover, the daemon keeps running, and the damaged bytes
// are kept aside as <file>.corrupt.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.duration = 6 * time.Hour
	if _, err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	var frame []byte
	readRecords(t, data, func(rec *snapRecord) error {
		if victim == "" && rec.Name != preddbRecord && !strings.HasPrefix(rec.Name, rrdPrefix) {
			victim, frame = rec.Name, bytes.Clone(rec.Frame)
		}
		return nil
	})
	at := bytes.Index(data, frame)
	if victim == "" || at < 0 {
		t.Fatalf("no pipeline record found in %s", path)
	}
	damaged := bytes.Clone(data)
	damaged[at+len(frame)/2] ^= 1 << 3
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume for two more hours against the damaged state dir.
	o.duration = 8 * time.Hour
	sum, err := run(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if kept, err := os.ReadFile(path + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	} else if !bytes.Equal(kept, damaged) {
		t.Error("the quarantined file does not hold the damaged bytes")
	}
	quarantined, recovered := 0, 0
	for _, p := range sum.Pipes {
		switch p.Recovery {
		case recoveryQuarantined:
			quarantined++
			if p.Key != victim {
				t.Errorf("%s quarantined, want only the victim %s", p.Key, victim)
			}
		case recoveryRecovered:
			recovered++
		}
	}
	if quarantined != 1 {
		t.Errorf("%d pipelines quarantined, want exactly 1 (victim %s)", quarantined, victim)
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

// TestSnapshotOldLayoutIgnored: a state directory that holds only the
// earlier per-file layout cold-starts with one log line naming what it
// ignores, and the run matches a clean one. The manifest carries the right
// fingerprint and a 4 h clock, so a restart that read it would diverge.
func TestSnapshotOldLayoutIgnored(t *testing.T) {
	opts := func(dir string) options { return crashOptions(dir, "") }
	cleanDir := t.TempDir()
	clean, err := run(io.Discard, opts(cleanDir))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	o := opts(dir)
	start := monitor.DefaultConfig().Start
	manifest := fmt.Sprintf(`{"clock":%d,"samples":%d,"fingerprint":%q}`,
		start.Add(4*time.Hour).Unix(), 4*60*2*len(vmtrace.Metrics()), fingerprintOptions(o))
	old := map[string]string{
		"manifest.json":             manifest,
		"preddb.db":                 "prediction DB of the earlier layout",
		"rrd/VM2.rrd":               "RRD of the earlier layout",
		"pipe/VM2__CPU_usedsec.lar": "pipeline of the earlier layout",
	}
	for rel, content := range old {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := openState(dir, fingerprintOptions(o), nil)
	if err != nil {
		t.Fatal(err)
	}
	agent, db, pipes := newWorld(t, o)
	var log strings.Builder
	if _, err := st.recover(agent, db, pipes, o, &log); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("monitord: %s: ignoring manifest.json, rrd, pipe, preddb.db, state of an earlier layout that is never read\n", dir)
	if log.String() != want {
		t.Errorf("recover logged %q, want %q", log.String(), want)
	}
	if !agent.Now().Equal(start) || agent.Samples() != 0 {
		t.Errorf("recover moved the clock to %v (%d samples); the earlier layout must not be read", agent.Now(), agent.Samples())
	}

	resumed, err := run(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range resumed.Pipes {
		if p.Recovery != recoveryCold {
			t.Errorf("%s: recovery %q, want %q", p.Key, p.Recovery, recoveryCold)
		}
	}
	assertSameRun(t, resumed, clean, dir, cleanDir)
}
