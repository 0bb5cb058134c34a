package rrd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// refSave and refLoad are Save and Load as they framed the database before
// the format moved onto durable.GobFrame, kept verbatim as the reference
// the differential tests compare the shared frame against.

func refSave(r *RRD, w io.Writer) error {
	sum := crc32.NewIEEE()
	cw := io.MultiWriter(w, sum)
	if _, err := cw.Write(persistMagic[:]); err != nil {
		return fmt.Errorf("rrd: write magic: %w", err)
	}
	var ver [4]byte
	ver[0] = byte(persistVersion)
	ver[1] = byte(persistVersion >> 8)
	ver[2] = byte(persistVersion >> 16)
	ver[3] = byte(persistVersion >> 24)
	if _, err := cw.Write(ver[:]); err != nil {
		return fmt.Errorf("rrd: write version: %w", err)
	}
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
	if err := gob.NewEncoder(cw).Encode(&snap); err != nil {
		return fmt.Errorf("rrd: encode: %w", err)
	}
	var foot [4]byte
	c := sum.Sum32()
	foot[0] = byte(c)
	foot[1] = byte(c >> 8)
	foot[2] = byte(c >> 16)
	foot[3] = byte(c >> 24)
	if _, err := w.Write(foot[:]); err != nil {
		return fmt.Errorf("rrd: write checksum: %w", err)
	}
	return nil
}

func refLoad(r io.Reader) (*RRD, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("rrd: read magic: %w", err)
	}
	if magic != persistMagic {
		return nil, ErrBadFormat
	}
	var ver [4]byte
	if _, err := io.ReadFull(r, ver[:]); err != nil {
		return nil, fmt.Errorf("rrd: read version: %w", err)
	}
	v := uint32(ver[0]) | uint32(ver[1])<<8 | uint32(ver[2])<<16 | uint32(ver[3])<<24
	var body io.Reader
	switch v {
	case 1:
		body = r
	case persistVersion:
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("rrd: read body: %w", err)
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("rrd: truncated before checksum: %w", ErrBadFormat)
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
		return nil, fmt.Errorf("rrd: version %d unsupported: %w", v, ErrBadFormat)
	}
	var snap snapshot
	if err := gob.NewDecoder(body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("rrd: decode: %w", err)
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

// refBytes is the reference encoding of db, or nil for a nil db. Two
// databases are equal when their reference encodings are: NaN rows and
// bounds rule out comparing the structs directly.
func refBytes(t *testing.T, db *RRD) []byte {
	t.Helper()
	if db == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := refSave(db, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffRRDs are seeded databases: empty, a gauge, and a counter with
// several archives and unknown rows.
func diffRRDs(t *testing.T) map[string]*RRD {
	t.Helper()
	out := map[string]*RRD{}
	empty, err := New(60,
		[]DS{{Name: "g", Type: Gauge, Heartbeat: 120, Min: math.NaN(), Max: math.NaN()}},
		[]RRASpec{{CF: Average, XFF: 0.5, Steps: 1, Rows: 4}})
	if err != nil {
		t.Fatal(err)
	}
	out["empty"] = empty

	gauge := simpleRRD(t)
	for i := 0; i <= 7; i++ {
		if err := gauge.Update(int64(60*i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	out["gauge"] = gauge

	multi, err := New(30,
		[]DS{
			{Name: "c", Type: Counter, Heartbeat: 90, Min: 0, Max: math.NaN()},
			{Name: "g", Type: Gauge, Heartbeat: 90, Min: math.NaN(), Max: 100},
		},
		[]RRASpec{
			{CF: Average, XFF: 0.5, Steps: 1, Rows: 16},
			{CF: Max, XFF: 0.5, Steps: 4, Rows: 8},
			{CF: Min, XFF: 0.9, Steps: 2, Rows: 8},
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		ts := int64(30 * i)
		if i >= 20 && i < 26 {
			ts += 200 // a gap past the heartbeat leaves unknown rows
		}
		if i >= 26 {
			ts += 200
		}
		if err := multi.Update(ts, float64(i*i), math.Mod(float64(i)*7.3, 100)); err != nil {
			t.Fatal(err)
		}
	}
	out["multi"] = multi
	return out
}

// TestPersistMatchesReference: Save writes the reference's bytes, and Load
// reads the reference's v2 and v1 bytes to the databases the reference
// reads them to.
func TestPersistMatchesReference(t *testing.T) {
	for name, db := range diffRRDs(t) {
		ref, again := refBytes(t, db), refBytes(t, db)
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(ref, again) && !bytes.Equal(buf.Bytes(), ref) {
			t.Errorf("%s: Save differs from the reference's bytes", name)
		}
		v1 := bytes.Clone(ref[:len(ref)-4])
		v1[8] = 1
		for _, in := range [][]byte{ref, v1} {
			want, werr := refLoad(bytes.NewReader(in))
			got, err := Load(bytes.NewReader(in))
			if werr != nil || err != nil {
				t.Fatalf("%s: Load = %v, reference = %v", name, err, werr)
			}
			if !bytes.Equal(refBytes(t, got), refBytes(t, want)) {
				t.Errorf("%s: Load of version %d differs from the reference's", name, in[8])
			}
		}
	}
}

// loadSentinels are the errors a Load failure is classified by.
var loadSentinels = []error{ErrBadFormat, ErrChecksum, ErrBadConfig, io.EOF, io.ErrUnexpectedEOF}

// TestPersistDamageMatchesReference: for every prefix and every single-bit
// flip of a small v2 encoding and its v1 form, Load fails exactly when the
// reference fails, its error matches every sentinel the reference's error
// matches, and what both accept is the same database.
func TestPersistDamageMatchesReference(t *testing.T) {
	ref := refBytes(t, diffRRDs(t)["gauge"])
	v1 := bytes.Clone(ref[:len(ref)-4])
	v1[8] = 1
	for _, enc := range [][]byte{ref, v1} {
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
			if !bytes.Equal(refBytes(t, got), refBytes(t, want)) {
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
