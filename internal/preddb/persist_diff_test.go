package preddb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"testing"
)

// refSave and refLoad are Save and Load as they framed the database before
// the format moved onto durable.GobFrame, kept verbatim (less metrics) as
// the reference the differential tests compare the shared frame against.

func refSave(db *DB, w io.Writer) error {
	sum := crc32.NewIEEE()
	cw := io.MultiWriter(w, sum)
	if _, err := cw.Write(persistMagic[:]); err != nil {
		return fmt.Errorf("preddb: write magic: %w", err)
	}
	var ver [4]byte
	ver[0] = byte(persistVersion)
	ver[1] = byte(persistVersion >> 8)
	ver[2] = byte(persistVersion >> 16)
	ver[3] = byte(persistVersion >> 24)
	if _, err := cw.Write(ver[:]); err != nil {
		return fmt.Errorf("preddb: write version: %w", err)
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := snapshot{}
	for k, rows := range db.rows {
		snap.Keys = append(snap.Keys, k)
		cp := make([]Record, len(rows))
		copy(cp, rows)
		snap.Rows = append(snap.Rows, cp)
	}
	if err := gob.NewEncoder(cw).Encode(&snap); err != nil {
		return fmt.Errorf("preddb: encode: %w", err)
	}
	var foot [4]byte
	c := sum.Sum32()
	foot[0] = byte(c)
	foot[1] = byte(c >> 8)
	foot[2] = byte(c >> 16)
	foot[3] = byte(c >> 24)
	if _, err := w.Write(foot[:]); err != nil {
		return fmt.Errorf("preddb: write checksum: %w", err)
	}
	return nil
}

func refLoad(r io.Reader) (*DB, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("preddb: read magic: %w", err)
	}
	if magic != persistMagic {
		return nil, ErrBadFormat
	}
	var ver [4]byte
	if _, err := io.ReadFull(r, ver[:]); err != nil {
		return nil, fmt.Errorf("preddb: read version: %w", err)
	}
	v := uint32(ver[0]) | uint32(ver[1])<<8 | uint32(ver[2])<<16 | uint32(ver[3])<<24
	var body io.Reader
	switch v {
	case 1:
		body = r
	case persistVersion:
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("preddb: read body: %w", err)
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("preddb: truncated before checksum: %w", ErrBadFormat)
		}
		payload, foot := rest[:len(rest)-4], rest[len(rest)-4:]
		want := uint32(foot[0]) | uint32(foot[1])<<8 | uint32(foot[2])<<16 | uint32(foot[3])<<24
		sum := crc32.NewIEEE()
		sum.Write(magic[:])
		sum.Write(ver[:])
		sum.Write(payload)
		if sum.Sum32() != want {
			return nil, ErrChecksum
		}
		body = bytes.NewReader(payload)
	default:
		return nil, fmt.Errorf("preddb: version %d unsupported: %w", v, ErrBadFormat)
	}
	var snap snapshot
	if err := gob.NewDecoder(body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("preddb: decode: %w", err)
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

// dbBytes is a canonical encoding of db's rows, keys in sorted order, or
// nil for a nil db. Two databases are equal when their dbBytes are: it
// compares NaN values bit for bit, where reflect.DeepEqual would not.
func dbBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	if db == nil {
		return nil
	}
	keys := make([]Key, 0, len(db.rows))
	for k := range db.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, k := range keys {
		if err := enc.Encode(k); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(db.rows[k]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// diffDBs are seeded databases: empty, one key, and several keys with
// predictions, NaN observations and shared timestamps.
func diffDBs() map[string]*DB {
	one := New()
	for i := 0; i < 4; i++ {
		one.PutObservation(key1, at(i), float64(i))
		one.PutPrediction(key1, at(i), float64(i)+0.5, "AR")
	}
	many := New()
	for i := 0; i < 12; i++ {
		many.PutObservation(key1, at(i), float64(i))
		many.PutPrediction(key1, at(i+1), float64(i)+0.25, "LAST")
		v := float64(3 * i)
		if i%5 == 2 {
			v = math.NaN()
		}
		many.PutObservation(key2, at(i), v)
		many.PutObservation(Key{VM: "VM3", Device: "CPU", Metric: "used"}, at(2*i), 1/float64(i+1))
	}
	return map[string]*DB{"empty": New(), "one": one, "many": many}
}

// TestPersistMatchesReference: Save writes the reference's bytes wherever
// the reference's own output is deterministic (map order makes it vary for
// more than one key), each side reads what the other wrote, and Load reads
// the reference's v2 and v1 bytes to the databases the reference reads them
// to.
func TestPersistMatchesReference(t *testing.T) {
	for name, db := range diffDBs() {
		var ref, again, buf bytes.Buffer
		if err := refSave(db, &ref); err != nil {
			t.Fatal(err)
		}
		if err := refSave(db, &again); err != nil {
			t.Fatal(err)
		}
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if len(db.rows) <= 1 && !bytes.Equal(ref.Bytes(), again.Bytes()) {
			t.Fatalf("%s: the reference's output varies", name)
		}
		if len(db.rows) <= 1 && !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Errorf("%s: Save differs from the reference's bytes", name)
		}
		if got, err := refLoad(bytes.NewReader(buf.Bytes())); err != nil || !bytes.Equal(dbBytes(t, got), dbBytes(t, db)) {
			t.Errorf("%s: the reference reads Save's bytes to a different database (%v)", name, err)
		}
		v1 := bytes.Clone(ref.Bytes()[:ref.Len()-4])
		v1[8] = 1
		for _, in := range [][]byte{ref.Bytes(), v1} {
			want, werr := refLoad(bytes.NewReader(in))
			got, err := Load(bytes.NewReader(in))
			if werr != nil || err != nil {
				t.Fatalf("%s: Load = %v, reference = %v", name, err, werr)
			}
			if !bytes.Equal(dbBytes(t, got), dbBytes(t, want)) || !bytes.Equal(dbBytes(t, got), dbBytes(t, db)) {
				t.Errorf("%s: Load of version %d differs from the reference's", name, in[8])
			}
		}
	}
}

// loadSentinels are the errors a Load failure is classified by.
var loadSentinels = []error{ErrBadFormat, ErrChecksum, io.EOF, io.ErrUnexpectedEOF}

// TestPersistDamageMatchesReference: for every prefix and every single-bit
// flip of a small v2 encoding and its v1 form, Load fails exactly when the
// reference fails, its error matches every sentinel the reference's error
// matches, and what both accept is the same database.
func TestPersistDamageMatchesReference(t *testing.T) {
	var ref bytes.Buffer
	if err := refSave(diffDBs()["one"], &ref); err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Clone(ref.Bytes()[:ref.Len()-4])
	v1[8] = 1
	for _, enc := range [][]byte{ref.Bytes(), v1} {
		check := func(what string, data []byte) {
			t.Helper()
			want, werr := refLoad(bytes.NewReader(data))
			got, err := Load(bytes.NewReader(data))
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s: Load err = %v, reference err = %v", what, err, werr)
			}
			for _, sentinel := range loadSentinels {
				if errors.Is(werr, sentinel) && !errors.Is(err, sentinel) {
					t.Fatalf("%s: err = %v does not match %v, as the reference's %v does", what, err, sentinel, werr)
				}
			}
			if !bytes.Equal(dbBytes(t, got), dbBytes(t, want)) {
				t.Fatalf("%s: Load accepted a different database than the reference", what)
			}
		}
		name := fmt.Sprintf("v%d", enc[8])
		for n := 0; n <= len(enc); n++ {
			check(fmt.Sprintf("%s prefix of %d/%d bytes", name, n, len(enc)), enc[:n])
		}
		damaged := bytes.Clone(enc)
		for off := range damaged {
			bit := off % 8
			damaged[off] ^= 1 << bit
			check(fmt.Sprintf("%s bit %d of byte %d flipped", name, bit, off), damaged)
			damaged[off] ^= 1 << bit
		}
	}
}
