package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/monitor"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/preddb"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// Durable state is one file, <dir>/monitord.snap, written through
// durable.WriteFileAtomic, so the clock, RRDs, prediction DB and pipelines
// a restart reads always describe the same moment. It is the magic
// "LARMOND1" and a record stream (durable): a snapHeader, then one
// snapRecord per VM's RRD, one for the prediction DB and one per pipeline,
// each holding its codec's checksummed frame. A record whose frame fails
// is skipped, so a damaged pipeline record cold-starts that pipeline alone
// (it warms up from the RRD's retained rows); the file is quarantined once
// the restore has read it. Nothing between snapshots is logged: recovery
// re-simulates from the header's clock, which regenerates every row the
// crashed process saw after it. Files of earlier layouts are never read.

const (
	snapName  = "monitord.snap"
	snapMagic = "LARMOND1"

	// Record names: an RRD's is rrdPrefix and its VM, a pipeline's its id.
	rrdPrefix    = "rrd "
	preddbRecord = "preddb"
)

// pipeFrame frames a pipeline's record: its bookkeeping and its predictor
// state.
var pipeFrame = durable.GobFrame{Magic: "LARPIPE2", Version: 1,
	ErrFormat: durable.ErrFrame, ErrChecksum: durable.ErrFrame}

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

// snapHeader opens the snapshot's record stream.
type snapHeader struct {
	Clock       int64
	Samples     int64
	Fingerprint string
	Records     int // how many snapRecords follow
}

// snapRecord is one database's or pipeline's entry in the snapshot.
type snapRecord struct {
	Name  string
	Frame []byte
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

// openState creates the state directory if needed and binds the
// durability counters on reg (nil leaves the store uninstrumented).
func openState(dir, fingerprint string, reg *obs.Registry) (*stateStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	st := &stateStore{dir: dir, fingerprint: fingerprint}
	if reg != nil {
		st.snapshots = reg.Counter1("larpredictor_snapshots_total",
			"Completed durable snapshots (one file: every RRD, the prediction DB and every pipeline).")
		st.quarantines = reg.Counter1("larpredictor_state_quarantines_total",
			"Damaged state files quarantined during warm restart.")
		st.pipesRecovered = reg.Counter1("larpredictor_pipelines_recovered_total",
			"Pipelines whose predictor state was restored on warm restart.")
	}
	return st, nil
}

func (st *stateStore) path() string { return filepath.Join(st.dir, snapName) }

// snapshot persists the whole daemon as one file: the header, every VM's
// RRD, the prediction DB, then every pipeline. Called from the supervisor
// loop only, after all slice goroutines joined.
func (st *stateStore) snapshot(agent *monitor.Agent, db *preddb.DB, pipes []*pipeline, o options) error {
	hdr := snapHeader{Clock: agent.Now().Unix(), Samples: agent.Samples(),
		Fingerprint: st.fingerprint, Records: len(o.vms) + 1 + len(pipes)}
	err := durable.WriteFileAtomic(st.path(), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 64<<10)
		if _, err := bw.WriteString(snapMagic); err != nil {
			return err
		}
		enc := gob.NewEncoder(bw)
		if err := enc.Encode(&hdr); err != nil {
			return err
		}
		var frame bytes.Buffer
		put := func(name string, save func(io.Writer) error) error {
			frame.Reset()
			if err := save(&frame); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return enc.Encode(&snapRecord{Name: name, Frame: frame.Bytes()})
		}
		for _, vm := range o.vms {
			if err := put(rrdPrefix+string(vm), func(w io.Writer) error { return agent.SaveVM(vm, w) }); err != nil {
				return err
			}
		}
		if err := put(preddbRecord, db.Save); err != nil {
			return err
		}
		for _, p := range pipes {
			if err := put(p.id, p.save); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	st.snapshots.Inc()
	return nil
}

// save writes the pipeline's record frame.
func (p *pipeline) save(w io.Writer) error {
	var online bytes.Buffer
	if err := p.online.SaveState(&online); err != nil {
		return err
	}
	return pipeFrame.Encode(w, &pipeState{LastSeen: p.lastSeen.Unix(),
		PendingFor: p.pendingFor.Unix(), Predictions: p.predictions, Online: online.Bytes()})
}

// restore loads a record frame written by save.
func (p *pipeline) restore(r io.Reader) error {
	var ps pipeState
	if err := pipeFrame.Decode(r, &ps); err != nil {
		return err
	}
	if err := p.online.RestoreState(bytes.NewReader(ps.Online)); err != nil {
		return err
	}
	p.lastSeen = time.Unix(ps.LastSeen, 0).UTC()
	p.pendingFor = time.Unix(ps.PendingFor, 0).UTC()
	p.predictions = ps.Predictions
	return nil
}

// openSnapshot checks the magic on r and decodes the header, returning the
// reader of the records that follow it.
func openSnapshot(r io.Reader) (snapHeader, *durable.StreamReader[snapRecord], error) {
	var hdr snapHeader
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapMagic {
		return hdr, nil, fmt.Errorf("%w: missing or wrong magic", durable.ErrFrame)
	}
	sr, err := durable.NewStreamReader[snapRecord](r, &hdr)
	return hdr, sr, err
}

// recover performs the warm restart from the snapshot file: it refuses a
// header from another configuration, sets the agent's clock and sample
// counter from the header, and restores every record whose frame checks
// out. The caller then re-simulates everything after the snapshot through
// the very same path live rows take. It returns the prediction DB the run
// should continue with; logw receives one line per abnormal event.
func (st *stateStore) recover(agent *monitor.Agent, db *preddb.DB, pipes []*pipeline, o options, logw io.Writer) (*preddb.DB, error) {
	byID := make(map[string]*pipeline, len(pipes))
	for _, p := range pipes {
		p.recovery = recoveryCold
		byID[p.id] = p
	}
	var old []string
	for _, name := range []string{"manifest.json", "rrd", "pipe", "preddb.db"} {
		if _, err := os.Lstat(filepath.Join(st.dir, name)); err == nil {
			old = append(old, name)
		}
	}
	if len(old) > 0 {
		fmt.Fprintf(logw, "monitord: %s: ignoring %s, state of an earlier layout that is never read\n",
			st.dir, strings.Join(old, ", "))
	}

	path := st.path()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return db, nil // cold: nothing checkpointed yet
	} else if err != nil {
		return nil, err
	}
	hdr, sr, err := openSnapshot(bufio.NewReaderSize(f, 64<<10))
	if err == nil && hdr.Fingerprint != st.fingerprint {
		f.Close()
		return nil, fmt.Errorf("state dir %s was written by a different configuration:\n  have %s\n  want %s",
			st.dir, hdr.Fingerprint, st.fingerprint)
	}
	apply := func(rec *snapRecord) error {
		if !durable.CheckFrame(rec.Frame) {
			return fmt.Errorf("%w: checksum mismatch", durable.ErrFrame)
		}
		r := bytes.NewReader(rec.Frame)
		vm, isRRD := strings.CutPrefix(rec.Name, rrdPrefix)
		switch p := byID[rec.Name]; {
		case p != nil:
			err := p.restore(r)
			if errors.Is(err, core.ErrStateMismatch) {
				// A sound record from another configuration of this
				// pipeline: not damage, just unusable. Cold start; the
				// next snapshot overwrites it.
				fmt.Fprintf(logw, "monitord: %s: predictor state mismatch, cold starting: %v\n", p.id, err)
				return nil
			} else if err == nil {
				p.recovery = recoveryRecovered
				st.pipesRecovered.Inc()
			}
			return err
		case isRRD:
			return agent.RestoreVM(vmtrace.VMID(vm), r)
		case rec.Name == preddbRecord:
			loaded, err := preddb.Load(r)
			if err == nil {
				db = loaded
			}
			return err
		}
		return errors.New("unknown record")
	}
	damaged := false
	if err == nil {
		agent.RestoreClock(time.Unix(hdr.Clock, 0).UTC(), hdr.Samples)
		err = sr.ReadRecords(hdr.Records, func(rec *snapRecord) error {
			if err := apply(rec); err != nil {
				damaged = true
				if p := byID[rec.Name]; p != nil {
					p.recovery = recoveryQuarantined
				}
				fmt.Fprintf(logw, "monitord: %s: record %q: %v\n", path, rec.Name, err)
			}
			return nil
		})
	}
	f.Close()
	if err != nil {
		fmt.Fprintf(logw, "monitord: %s: %v\n", path, err)
	}
	if err != nil || damaged {
		st.quarantines.Inc()
		if moved, err := durable.Quarantine(path); err != nil {
			fmt.Fprintf(logw, "monitord: quarantine %s failed: %v\n", path, err)
		} else {
			fmt.Fprintf(logw, "monitord: quarantined %s -> %s\n", path, moved)
		}
	}
	return db, nil
}
