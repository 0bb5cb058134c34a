package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeFrame returns payload as one frame under magic, written through a
// FrameWriter in chunks of at most chunk bytes.
func writeFrame(t *testing.T, magic string, payload []byte, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, magic)
	if err != nil {
		t.Fatal(err)
	}
	for rest := payload; len(rest) > 0; {
		n := min(len(rest), chunk)
		if _, err := fw.Write(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameLayout pins the on-disk layout, magic + payload + CRC32-IEEE
// (little-endian) over both, and requires the streaming writer to produce
// the same bytes however the payload is split.
func TestFrameLayout(t *testing.T) {
	payload := bytes.Repeat([]byte("frame payload "), 1000)
	want := append([]byte("LARTEST1"), payload...)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	for _, chunk := range []int{len(payload), 777, 1} {
		if got := writeFrame(t, "LARTEST1", payload, chunk); !bytes.Equal(got, want) {
			t.Fatalf("FrameWriter layout changed (%d-byte writes)", chunk)
		}
	}
}

// TestOpenFrame: a verified frame yields exactly its payload; any damage, a
// wrong magic, or a missing file is refused before a payload byte is handed
// out.
func TestOpenFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	write := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenFrame(path, "LARTEST1"); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want not-exist", err)
	}
	for _, payload := range [][]byte{nil, []byte("old format"), bytes.Repeat([]byte{7}, 200<<10)} {
		good := writeFrame(t, "LARTEST1", payload, 4096)
		write(good)
		fr, err := OpenFrame(path, "LARTEST1")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(fr)
		fr.Close()
		if err != nil || !bytes.Equal(got, payload) || fr.Size() != int64(len(payload)) {
			t.Fatalf("OpenFrame = %d bytes (size %d), %v; want the %d-byte payload",
				len(got), fr.Size(), err, len(payload))
		}
		if _, err := OpenFrame(path, "LARTEST2"); !errors.Is(err, ErrFrame) {
			t.Fatalf("unaccepted magic: err = %v, want ErrFrame", err)
		}
		for off := 0; off < len(good); off += 1 + len(good)/300 {
			damaged := bytes.Clone(good)
			damaged[off] ^= 0x10
			write(damaged)
			if _, err := OpenFrame(path, "LARTEST1"); !errors.Is(err, ErrFrame) {
				t.Fatalf("bit flip at %d of %d: err = %v, want ErrFrame", off, len(good), err)
			}
			write(good[:off])
			if _, err := OpenFrame(path, "LARTEST1"); !errors.Is(err, ErrFrame) {
				t.Fatalf("truncated to %d of %d: err = %v, want ErrFrame", off, len(good), err)
			}
		}
	}
}
