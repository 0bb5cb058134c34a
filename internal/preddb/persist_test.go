package preddb

import (
	"bytes"
	"errors"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		db.PutObservation(key1, at(i), float64(i))
		db.PutPrediction(key1, at(i), float64(i)+0.5, "AR")
		db.PutObservation(key2, at(i), float64(2*i))
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Keys()) != 2 {
		t.Fatalf("keys = %v", loaded.Keys())
	}
	a := db.Range(key1, at(0), at(9))
	b := loaded.Range(key1, at(0), at(9))
	if len(a) != len(b) {
		t.Fatalf("records %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Loaded DB keeps working.
	loaded.PutObservation(key1, at(10), 99)
	if loaded.Len(key1) != 11 {
		t.Error("loaded DB rejected new writes")
	}
	mse, n, err := loaded.AuditMSE(key1, 5)
	if err != nil || n != 5 || mse != 0.25 {
		t.Errorf("audit on loaded DB: mse=%g n=%d err=%v", mse, n, err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage data here......"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("garbage err = %v", err)
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	var buf bytes.Buffer
	buf.Write(persistMagic[:])
	buf.Write([]byte{9, 9, 9, 9})
	if _, err := Load(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad version err = %v", err)
	}
}

func TestLoadTruncated(t *testing.T) {
	db := New()
	for i := 0; i < 8; i++ {
		db.PutObservation(key1, at(i), float64(i))
		db.PutPrediction(key1, at(i), float64(i)+0.25, "AR")
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every short read fails cleanly: mid-magic, mid-version, mid-gob, and
	// with the checksum footer cut off.
	cuts := []struct {
		name string
		n    int
	}{
		{"empty", 0},
		{"mid-magic", 3},
		{"magic-only", 8},
		{"mid-version", 11},
		{"header-only", 12},
		{"mid-gob", 12 + (len(full)-16)/2},
		{"missing-footer", len(full) - 4},
		{"partial-footer", len(full) - 1},
	}
	for _, c := range cuts {
		if _, err := Load(bytes.NewReader(full[:c.n])); err == nil {
			t.Errorf("%s (%d bytes) accepted", c.name, c.n)
		}
	}
}

func TestLoadChecksumMismatch(t *testing.T) {
	db := New()
	for i := 0; i < 8; i++ {
		db.PutObservation(key1, at(i), float64(i))
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, off := range []int{12, len(full) / 2, len(full) - 5, len(full) - 1} {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x40
		if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
			t.Errorf("flip at %d: err = %v, want ErrChecksum", off, err)
		}
	}
}

func TestLoadV1Compat(t *testing.T) {
	db := New()
	for i := 0; i < 6; i++ {
		db.PutObservation(key1, at(i), float64(i))
		db.PutPrediction(key2, at(i), float64(i)+1, "MEAN")
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Rewrite the v2 file as the legacy v1 layout: same gob payload, version
	// byte 1, no footer.
	full := buf.Bytes()
	v1 := append([]byte(nil), full[:len(full)-4]...)
	v1[8] = 1
	loaded, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 load: %v", err)
	}
	for _, k := range []Key{key1, key2} {
		a := db.Range(k, at(0), at(5))
		b := loaded.Range(k, at(0), at(5))
		if len(a) != len(b) {
			t.Fatalf("v1 key %v: %d vs %d records", k, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("v1 record %d differs: %+v vs %+v", i, b[i], a[i])
			}
		}
	}
}
