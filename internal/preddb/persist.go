package preddb

import (
	"errors"
	"fmt"
	"io"

	"github.com/acis-lab/larpredictor/internal/durable"
)

// persistence format: a durable.GobFrame — magic header, version, gob
// stream, and (since v2) a CRC32-IEEE footer over everything preceding it,
// the same scheme as internal/rrd so operators can identify the files. v1
// files, written before the footer existed, still load.
var persistMagic = [8]byte{'L', 'A', 'R', 'P', 'P', 'D', 'B', '1'}

const persistVersion uint32 = 2

var persistFrame = durable.GobFrame{Magic: string(persistMagic[:]), Version: persistVersion,
	Legacy: 1, ErrFormat: ErrBadFormat, ErrChecksum: ErrChecksum}

// ErrBadFormat is returned by Load for unrecognized input.
var ErrBadFormat = errors.New("preddb: unrecognized database format")

// ErrChecksum is returned by Load when the v2 footer does not match the
// file contents — the file is the right format but damaged.
var ErrChecksum = errors.New("preddb: database checksum mismatch")

// snapshot is the serialized form.
type snapshot struct {
	Keys []Key
	Rows [][]Record
}

// Save serializes the database in the v2 checksummed format. It holds the
// read lock for the duration.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := snapshot{}
	for k, rows := range db.rows {
		snap.Keys = append(snap.Keys, k)
		cp := make([]Record, len(rows))
		copy(cp, rows)
		snap.Rows = append(snap.Rows, cp)
	}
	if err := persistFrame.Encode(w, &snap); err != nil {
		return err
	}
	if db.met != nil {
		db.met.saves.Inc()
	}
	return nil
}

// Load deserializes a database written by Save. It reads both the current
// v2 checksummed layout and the checksum-less v1 layout written by earlier
// releases.
func Load(r io.Reader) (*DB, error) {
	var snap snapshot
	if err := persistFrame.Decode(r, &snap); err != nil {
		return nil, err
	}
	if len(snap.Keys) != len(snap.Rows) {
		return nil, fmt.Errorf("preddb: corrupt snapshot (%d keys, %d row sets): %w",
			len(snap.Keys), len(snap.Rows), ErrBadFormat)
	}
	db := New()
	for i, k := range snap.Keys {
		db.rows[k] = snap.Rows[i]
	}
	return db, nil
}
