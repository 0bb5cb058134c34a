package main

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/monitor"
	"github.com/acis-lab/larpredictor/internal/preddb"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// newWorld builds the agent, prediction DB and cold pipelines a run under
// o starts from. The agent samples nothing: recovery never samples.
func newWorld(tb testing.TB, o options) (*monitor.Agent, *preddb.DB, []*pipeline) {
	tb.Helper()
	cfg := monitor.DefaultConfig(o.vms...)
	agent, err := monitor.NewAgent(cfg, func(vmtrace.VMID, vmtrace.Metric, time.Time) (float64, bool) {
		return 0, false
	})
	if err != nil {
		tb.Fatal(err)
	}
	pipes, err := newPipelines(o, nil, cfg.Start)
	if err != nil {
		tb.Fatal(err)
	}
	return agent, preddb.New(), pipes
}

// FuzzMonitordSnapshot feeds warm restart arbitrary snapshot bytes, seeded
// with a real snapshot, its cuts and its bit flips. The restart must never
// panic, fail only on a header from another configuration, and never
// apply a record whose frame fails its checksum: every pipeline it
// recovers, and a prediction DB it returns in place of the fresh one, needs
// a record of that name whose frame checks out.
// The real snapshot restores every pipeline and stays in place; any other
// bytes that fail anything are quarantined.
func FuzzMonitordSnapshot(f *testing.F) {
	o := durableOptions(f.TempDir())
	o.duration = 3 * time.Hour
	if _, err := run(io.Discard, o); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(o.stateDir, snapName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{0, len(snapMagic) - 1, len(snapMagic) + 40, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, off := range []int{2, len(snapMagic) + 30, len(valid) / 3, len(valid) / 2, len(valid) - 3} {
		flipped := bytes.Clone(valid)
		flipped[off] ^= 0x24
		f.Add(flipped)
	}
	// The prediction DB record in its codec's footer-less version 1, which
	// preddb.Load accepts unverified: recover must refuse it.
	hdr, sr, err := openSnapshot(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	legacy := bytes.NewBufferString(snapMagic)
	enc := gob.NewEncoder(legacy)
	if err := enc.Encode(&hdr); err != nil {
		f.Fatal(err)
	}
	err = sr.ReadRecords(hdr.Records, func(rec *snapRecord) error {
		if rec.Name == preddbRecord {
			rec.Frame = bytes.Clone(rec.Frame[:len(rec.Frame)-4])
			rec.Frame[8] = 1 // the version, after the codec's 8-byte magic
		}
		return enc.Encode(rec)
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	fingerprint := fingerprintOptions(o)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, snapName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := openState(dir, fingerprint, nil)
		if err != nil {
			t.Fatal(err)
		}
		agent, fresh, pipes := newWorld(t, o)
		db, rerr := st.recover(agent, fresh, pipes, o, io.Discard)

		// Whether any record of each name checks out, read independently.
		sound := map[string]bool{}
		hdr, sr, serr := openSnapshot(bytes.NewReader(data))
		foreign := serr == nil && hdr.Fingerprint != fingerprint
		if serr == nil {
			serr = sr.ReadRecords(hdr.Records, func(rec *snapRecord) error {
				sound[rec.Name] = sound[rec.Name] || durable.CheckFrame(rec.Frame)
				return nil
			})
		}
		if (rerr != nil) != foreign {
			t.Fatalf("recover error %v, header from another configuration %v", rerr, foreign)
		}
		if foreign {
			return
		}
		recovered := 0
		for _, p := range pipes {
			if p.recovery == recoveryRecovered {
				recovered++
				if !sound[p.id] {
					t.Fatalf("%s recovered from a record that fails its checksum", p.id)
				}
			}
		}
		if db != fresh && !sound[preddbRecord] {
			t.Fatal("the prediction DB came from a record that fails its checksum")
		}
		_, kept := os.Stat(path)
		if bytes.Equal(data, valid) && (recovered != len(pipes) || kept != nil) {
			t.Fatalf("the real snapshot recovered %d of %d pipelines (stat %v)", recovered, len(pipes), kept)
		}
		if serr != nil && kept == nil {
			t.Fatalf("a snapshot that does not read (%v) was not quarantined", serr)
		}
	})
}
