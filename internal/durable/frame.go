package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
)

// A checksummed frame is magic + payload + CRC32-IEEE footer (little-endian)
// over magic+payload. Both daemons persist their state in this framing;
// pair a writer with WriteFileAtomic so a crash leaves either the whole old
// frame or the whole new one. FrameWriter and OpenFrame stream it, so
// neither side needs the payload in memory at once; WriteChecksummed and
// ReadChecksummedFile are their whole-buffer forms.

// ErrFrame covers unreadable or checksum-failing framed snapshot files: a
// missing or wrong magic, a truncated footer, or a CRC mismatch. Callers
// typically quarantine the file and cold-start.
var ErrFrame = errors.New("durable: bad checksummed frame")

// frameFooter is the CRC32 footer's size.
const frameFooter = 4

// FrameWriter writes one checksummed frame: NewFrameWriter writes the magic,
// Write appends payload bytes, and Close appends the footer.
type FrameWriter struct {
	w   io.Writer
	sum hash.Hash32
}

// NewFrameWriter starts a frame on w by writing magic.
func NewFrameWriter(w io.Writer, magic string) (*FrameWriter, error) {
	fw := &FrameWriter{w: w, sum: crc32.NewIEEE()}
	if _, err := io.WriteString(fw, magic); err != nil {
		return nil, err
	}
	return fw, nil
}

// Write appends payload bytes, hashing exactly what reached w.
func (fw *FrameWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.sum.Write(p[:n])
	return n, err
}

// Close appends the footer. It does not close the underlying writer.
func (fw *FrameWriter) Close() error {
	var foot [frameFooter]byte
	binary.LittleEndian.PutUint32(foot[:], fw.sum.Sum32())
	_, err := fw.w.Write(foot[:])
	return err
}

// WriteChecksummed writes payload as one whole frame.
func WriteChecksummed(w io.Writer, magic string, payload []byte) error {
	fw, err := NewFrameWriter(w, magic)
	if err != nil {
		return err
	}
	if _, err := fw.Write(payload); err != nil {
		return err
	}
	return fw.Close()
}

// Frame is a verified frame open for reading: Read yields the payload, and
// Magic is the one of the caller's accepted magics that the file carries.
// Close releases the file.
type Frame struct {
	*io.SectionReader
	Magic string
	f     *os.File
}

// Close closes the underlying file.
func (fr *Frame) Close() error { return fr.f.Close() }

// OpenFrame opens a file written through a FrameWriter and verifies it
// before returning: the file must start with one of magics, and the whole
// of it is streamed once through CRC32 with a constant-size buffer and
// checked against the footer. Only then is the payload handed out, so a
// caller never applies a byte of a damaged file. A missing file surfaces as
// os.IsNotExist; anything malformed wraps ErrFrame.
func OpenFrame(path string, magics ...string) (fr *Frame, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	magic := ""
	for _, m := range magics {
		if size < int64(len(m))+frameFooter {
			continue
		}
		head := make([]byte, len(m))
		if _, err := f.ReadAt(head, 0); err != nil {
			return nil, err
		}
		if string(head) == m {
			magic = m
			break
		}
	}
	if magic == "" {
		return nil, fmt.Errorf("%w: missing or wrong magic", ErrFrame)
	}
	sum := crc32.NewIEEE()
	buf := make([]byte, 64<<10)
	if _, err := io.CopyBuffer(sum, io.NewSectionReader(f, 0, size-frameFooter), buf); err != nil {
		return nil, err
	}
	var foot [frameFooter]byte
	if _, err := f.ReadAt(foot[:], size-frameFooter); err != nil {
		return nil, err
	}
	if sum.Sum32() != binary.LittleEndian.Uint32(foot[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	payload := io.NewSectionReader(f, int64(len(magic)), size-frameFooter-int64(len(magic)))
	return &Frame{SectionReader: payload, Magic: magic, f: f}, nil
}

// ReadChecksummedFile reads a whole frame's payload into memory. A missing
// file surfaces as os.IsNotExist; anything malformed wraps ErrFrame.
func ReadChecksummedFile(path, magic string) ([]byte, error) {
	fr, err := OpenFrame(path, magic)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	payload := make([]byte, fr.Size())
	if _, err := io.ReadFull(fr, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
