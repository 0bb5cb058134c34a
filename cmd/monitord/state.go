package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/monitor"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/preddb"
)

// State directory layout:
//
//	<dir>/manifest.json        clock, sample counter, config fingerprint
//	<dir>/rrd/<vm>.rrd         per-VM round-robin database snapshot
//	<dir>/preddb.db            prediction database snapshot
//	<dir>/pipe/<vm>__<metric>.lar   per-pipeline predictor + bookkeeping
//
// Every snapshot file is written atomically (temp + fsync + rename) and
// carries its own checksum; the manifest is written last so its clock only
// ever describes fully-committed state. Nothing between snapshots is
// logged: recovery resumes the deterministic simulation at the manifest
// clock, which regenerates every row the crashed process saw after it.

const (
	pipeMagic    = "LARPIPE1"
	manifestName = "manifest.json"
)

// Per-pipeline recovery outcomes reported on the status endpoint.
const (
	recoveryCold        = "cold"
	recoveryRecovered   = "recovered"
	recoveryQuarantined = "quarantined"
)

// errSimulatedCrash is returned by run when options.crashAfterHours fires:
// the crash test uses it to stop a run dead — no final snapshot, no
// cleanup — exactly what a SIGKILL would leave behind.
var errSimulatedCrash = errors.New("monitord: simulated crash")

// manifest is the commit record of a snapshot.
type manifest struct {
	Clock       int64  `json:"clock"`
	Samples     int64  `json:"samples"`
	Fingerprint string `json:"fingerprint"`
}

// pipeState is the serialized bookkeeping of one pipeline; Online holds the
// core codec's framed predictor state.
type pipeState struct {
	LastSeen    int64
	PendingFor  int64
	Predictions int
	Online      []byte
}

// stateStore owns a monitord state directory.
type stateStore struct {
	dir         string
	fingerprint string

	// Durability instruments; all nil-safe when no registry was attached.
	snapshots      *obs.Counter
	quarantines    *obs.Counter
	pipesRecovered *obs.Counter
}

// fingerprintOptions digests every option that shapes the simulated world.
// A state directory written under one fingerprint cannot be warm-restarted
// under another: the deterministic re-simulation that recovery relies on
// would diverge from what the snapshot describes.
func fingerprintOptions(o options) string {
	vms := make([]string, len(o.vms))
	for i, vm := range o.vms {
		vms[i] = string(vm)
	}
	sort.Strings(vms)
	return fmt.Sprintf("seed=%d vms=%v window=%d train=%d audit=%d threshold=%g faults=%q fault-seed=%d",
		o.seed, vms, o.window, o.trainSize, o.auditWin, o.threshold, o.faultSpec, o.faultSeed)
}

// openState creates the state directory tree if needed and binds the
// durability counters on reg (nil leaves the store uninstrumented).
func openState(dir, fingerprint string, reg *obs.Registry) (*stateStore, error) {
	for _, sub := range []string{"", "rrd", "pipe"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
	}
	st := &stateStore{dir: dir, fingerprint: fingerprint}
	if reg != nil {
		st.snapshots = reg.Counter1("larpredictor_snapshots_total",
			"Completed durable snapshots (all RRDs, prediction DB, pipelines, manifest).")
		st.quarantines = reg.Counter1("larpredictor_state_quarantines_total",
			"Damaged state files quarantined during warm restart.")
		st.pipesRecovered = reg.Counter1("larpredictor_pipelines_recovered_total",
			"Pipelines whose predictor state was restored on warm restart.")
	}
	return st, nil
}

func (st *stateStore) manifestPath() string { return filepath.Join(st.dir, manifestName) }
func (st *stateStore) preddbPath() string   { return filepath.Join(st.dir, "preddb.db") }

func (st *stateStore) rrdPath(vm string) string {
	return filepath.Join(st.dir, "rrd", vm+".rrd")
}

func pipeFile(p *pipeline) string {
	return fmt.Sprintf("%s__%s", p.vm, p.metric)
}

func (st *stateStore) pipePath(p *pipeline) string {
	return filepath.Join(st.dir, "pipe", pipeFile(p)+".lar")
}

// snapshot persists the whole daemon: every VM's RRD, the prediction DB,
// every pipeline's predictor state, then the manifest. Called from the
// supervisor loop only, after all slice goroutines joined.
func (st *stateStore) snapshot(agent *monitor.Agent, db *preddb.DB, pipes []*pipeline, o options) error {
	for _, vm := range o.vms {
		vm := vm
		err := durable.WriteFileAtomic(st.rrdPath(string(vm)), func(w io.Writer) error {
			return agent.SaveVM(vm, w)
		})
		if err != nil {
			return fmt.Errorf("snapshot rrd %s: %w", vm, err)
		}
	}
	if err := durable.WriteFileAtomic(st.preddbPath(), db.Save); err != nil {
		return fmt.Errorf("snapshot preddb: %w", err)
	}
	for _, p := range pipes {
		var online bytes.Buffer
		if err := p.online.SaveState(&online); err != nil {
			return fmt.Errorf("snapshot %s predictor: %w", pipeFile(p), err)
		}
		ps := pipeState{
			LastSeen:    p.lastSeen.Unix(),
			PendingFor:  p.pendingFor.Unix(),
			Predictions: p.predictions,
			Online:      online.Bytes(),
		}
		err := durable.WriteFileAtomic(st.pipePath(p), func(w io.Writer) error {
			fw, err := durable.NewFrameWriter(w, pipeMagic)
			if err != nil {
				return err
			}
			if err := gob.NewEncoder(fw).Encode(&ps); err != nil {
				return err
			}
			return fw.Close()
		})
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", pipeFile(p), err)
		}
	}
	m := manifest{Clock: agent.Now().Unix(), Samples: agent.Samples(), Fingerprint: st.fingerprint}
	buf, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	err = durable.WriteFileAtomic(st.manifestPath(), func(w io.Writer) error {
		_, werr := w.Write(buf)
		return werr
	})
	if err != nil {
		return fmt.Errorf("snapshot manifest: %w", err)
	}
	st.snapshots.Inc()
	return nil
}

// recover performs the warm restart: it verifies the manifest, restores
// RRDs and the prediction DB (quarantining anything damaged), restores each
// pipeline's predictor state or cold-starts it, and sets the agent's clock
// to the manifest's so the caller re-simulates everything after the
// snapshot through the very same path live rows take. A cold pipeline warms
// up from the RRD's retained rows, exactly like a fresh one. It returns the
// prediction DB the run should continue with. logw receives one line per
// abnormal event.
func (st *stateStore) recover(agent *monitor.Agent, db *preddb.DB, pipes []*pipeline, o options, logw io.Writer) (*preddb.DB, error) {
	for _, p := range pipes {
		p.recovery = recoveryCold
	}

	var m *manifest
	if buf, err := os.ReadFile(st.manifestPath()); err == nil {
		m = &manifest{}
		if jerr := json.Unmarshal(buf, m); jerr != nil {
			st.quarantineAndLog(st.manifestPath(), jerr, logw)
			m = nil
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	if m != nil && m.Fingerprint != st.fingerprint {
		return nil, fmt.Errorf("state dir %s was written by a different configuration:\n  have %s\n  want %s",
			st.dir, m.Fingerprint, st.fingerprint)
	}

	for _, vm := range o.vms {
		path := st.rrdPath(string(vm))
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return nil, err
		}
		rerr := agent.RestoreVM(vm, f)
		f.Close()
		if rerr != nil {
			st.quarantineAndLog(path, rerr, logw)
		}
	}

	if f, err := os.Open(st.preddbPath()); err == nil {
		loaded, lerr := preddb.Load(f)
		f.Close()
		if lerr != nil {
			st.quarantineAndLog(st.preddbPath(), lerr, logw)
		} else {
			db = loaded
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	if m != nil {
		agent.RestoreClock(time.Unix(m.Clock, 0).UTC(), m.Samples)
	}

	for _, p := range pipes {
		path := st.pipePath(p)
		var ps pipeState
		fr, err := durable.OpenFrame(path, pipeMagic)
		if err == nil {
			// Unreadable or checksum-failing files fail OpenFrame with
			// durable.ErrFrame; a verified payload can still not decode.
			err = gob.NewDecoder(fr).Decode(&ps)
			fr.Close()
		}
		switch {
		case os.IsNotExist(err):
			// cold: nothing checkpointed yet.
		case err != nil:
			st.quarantineAndLog(path, err, logw)
			p.recovery = recoveryQuarantined
		default:
			if rerr := p.online.RestoreState(bytes.NewReader(ps.Online)); rerr != nil {
				if errors.Is(rerr, core.ErrStateMismatch) {
					// Valid file from another configuration of this pipeline:
					// not damage, just unusable. Cold start and overwrite it
					// at the next snapshot.
					fmt.Fprintf(logw, "monitord: %s: predictor state mismatch, cold starting: %v\n", pipeFile(p), rerr)
					break
				}
				st.quarantineAndLog(path, rerr, logw)
				p.recovery = recoveryQuarantined
				break
			}
			p.lastSeen = time.Unix(ps.LastSeen, 0).UTC()
			p.pendingFor = time.Unix(ps.PendingFor, 0).UTC()
			p.predictions = ps.Predictions
			p.recovery = recoveryRecovered
			st.pipesRecovered.Inc()
		}
	}
	return db, nil
}

// quarantineAndLog moves a damaged state file aside and counts it.
func (st *stateStore) quarantineAndLog(path string, cause error, logw io.Writer) {
	st.quarantines.Inc()
	moved, err := durable.Quarantine(path)
	if err != nil {
		fmt.Fprintf(logw, "monitord: quarantine %s failed: %v (cause: %v)\n", path, err, cause)
		return
	}
	fmt.Fprintf(logw, "monitord: quarantined %s -> %s: %v\n", path, moved, cause)
}
