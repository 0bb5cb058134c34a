package rrd

import (
	"errors"
	"fmt"
	"io"

	"github.com/acis-lab/larpredictor/internal/durable"
)

// persistence format: a durable.GobFrame — a fixed magic header, a format
// version, a gob stream of the snapshot struct, and (since v2) a CRC32-IEEE
// footer over everything preceding it. The magic guards against feeding
// arbitrary files to Load; the version allows layout changes; the checksum
// detects torn writes and bit rot before gob gets a chance to misdecode
// them. v1 files, written before the footer existed, still load.
var persistMagic = [8]byte{'L', 'A', 'R', 'P', 'R', 'R', 'D', '1'}

const persistVersion uint32 = 2

var persistFrame = durable.GobFrame{Magic: string(persistMagic[:]), Version: persistVersion,
	Legacy: 1, ErrFormat: ErrBadFormat, ErrChecksum: ErrChecksum}

// ErrBadFormat is returned by Load for unrecognized input.
var ErrBadFormat = errors.New("rrd: unrecognized database format")

// ErrChecksum is returned by Load when the v2 footer does not match the
// file contents — the file is the right format but damaged.
var ErrChecksum = errors.New("rrd: database checksum mismatch")

// snapshot is the serialized form of an RRD.
type snapshot struct {
	Step       int64
	DS         []DS
	LastUpdate int64
	Started    bool
	LastRaw    []float64
	PDPAccum   []float64
	PDPKnown   []int64
	Archives   []archiveSnapshot
}

type archiveSnapshot struct {
	Spec       RRASpec
	Ring       [][]float64
	Head       int
	Filled     int
	LastRowEnd int64
	CDPs       []cdpSnapshot
}

// cdpSnapshot mirrors the unexported cdp accumulator with exported fields
// for gob.
type cdpSnapshot struct {
	Sum     float64
	Known   int
	Unknown int
}

func snapshotCDPs(cs []cdp) []cdpSnapshot {
	out := make([]cdpSnapshot, len(cs))
	for i, c := range cs {
		out[i] = cdpSnapshot{Sum: c.sum, Known: c.known, Unknown: c.unknown}
	}
	return out
}

func restoreCDPs(cs []cdpSnapshot) []cdp {
	out := make([]cdp, len(cs))
	for i, c := range cs {
		out[i] = cdp{sum: c.Sum, known: c.Known, unknown: c.Unknown}
	}
	return out
}

// Save serializes the database in the v2 checksummed format.
func (r *RRD) Save(w io.Writer) error {
	snap := snapshot{
		Step:       r.step,
		DS:         r.ds,
		LastUpdate: r.lastUpdate,
		Started:    r.started,
		LastRaw:    r.lastRaw,
		PDPAccum:   r.pdpAccum,
		PDPKnown:   r.pdpKnown,
	}
	for _, a := range r.rras {
		snap.Archives = append(snap.Archives, archiveSnapshot{
			Spec:       a.spec,
			Ring:       a.ring,
			Head:       a.head,
			Filled:     a.filled,
			LastRowEnd: a.lastRowEnd,
			CDPs:       snapshotCDPs(a.cdps),
		})
	}
	return persistFrame.Encode(w, &snap)
}

// Load deserializes a database written by Save. It reads both the current
// v2 checksummed layout and the checksum-less v1 layout written by earlier
// releases.
func Load(r io.Reader) (*RRD, error) {
	var snap snapshot
	if err := persistFrame.Decode(r, &snap); err != nil {
		return nil, err
	}
	specs := make([]RRASpec, len(snap.Archives))
	for i, a := range snap.Archives {
		specs[i] = a.Spec
	}
	db, err := New(snap.Step, snap.DS, specs)
	if err != nil {
		return nil, fmt.Errorf("rrd: rebuild: %w", err)
	}
	db.lastUpdate = snap.LastUpdate
	db.started = snap.Started
	copy(db.lastRaw, snap.LastRaw)
	copy(db.pdpAccum, snap.PDPAccum)
	copy(db.pdpKnown, snap.PDPKnown)
	for i, a := range snap.Archives {
		db.rras[i].ring = a.Ring
		db.rras[i].head = a.Head
		db.rras[i].filled = a.Filled
		db.rras[i].lastRowEnd = a.LastRowEnd
		db.rras[i].cdps = restoreCDPs(a.CDPs)
	}
	return db, nil
}
