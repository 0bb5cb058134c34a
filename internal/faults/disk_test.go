package faults

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func diskFile(t *testing.T, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "victim")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlipBit(t *testing.T) {
	path := diskFile(t, []byte{0x00, 0xFF, 0x0F})
	if err := FlipBit(path, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, -1, 7); err != nil { // last byte via negative offset
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x01, 0xFF, 0x8F}
	if !bytes.Equal(got, want) {
		t.Fatalf("got % x, want % x", got, want)
	}
	// Flipping the same bit twice restores the original byte.
	if err := FlipBit(path, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ = os.ReadFile(path); got[0] != 0x00 {
		t.Fatalf("double flip did not restore: %x", got[0])
	}
	if err := FlipBit(path, 3, 0); err == nil {
		t.Fatal("offset past EOF accepted")
	}
	if err := FlipBit(path, -4, 0); err == nil {
		t.Fatal("negative offset before start accepted")
	}
	if err := FlipBit(path, 0, 8); err == nil {
		t.Fatal("bit index 8 accepted")
	}
}
