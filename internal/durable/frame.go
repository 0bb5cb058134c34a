package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
)

// A checksummed frame is magic + payload + CRC32-IEEE footer (little-endian)
// over magic+payload. Every state file of both daemons is one; pair a writer
// with WriteFileAtomic so a crash leaves either the whole old frame or the
// whole new one. FrameWriter and OpenFrame stream it, so neither side needs
// the payload in memory at once, and GobFrame is the versioned gob codec
// built on it.

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

// Frame is a verified frame open for reading: Read yields the payload.
// Close releases the file.
type Frame struct {
	*io.SectionReader
	f *os.File
}

// Close closes the underlying file.
func (fr *Frame) Close() error { return fr.f.Close() }

// OpenFrame opens a file written through a FrameWriter and verifies it
// before returning: the file must start with magic, and the whole of it is
// streamed once through CRC32 with a constant-size buffer and checked
// against the footer. Only then is the payload handed out, so a caller
// never applies a byte of a damaged file. A missing file surfaces as
// os.IsNotExist; anything malformed wraps ErrFrame.
func OpenFrame(path, magic string) (fr *Frame, err error) {
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
	if size < int64(len(magic))+frameFooter {
		return nil, fmt.Errorf("%w: missing or wrong magic", ErrFrame)
	}
	head := make([]byte, len(magic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if string(head) != magic {
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
	return &Frame{SectionReader: payload, f: f}, nil
}

// GobFrame is a versioned gob codec for one state value: a checksummed
// frame whose payload is Version as a little-endian uint32 followed by the
// value's gob encoding. The core, rrd and preddb packages each declare one,
// with their own magic, version and error sentinels.
type GobFrame struct {
	Magic   string
	Version uint32
	// Legacy, when nonzero, is an earlier version written without the
	// footer: its gob value runs to the end of the stream, unverified.
	Legacy uint32
	// ErrFormat is wrapped by every Decode error except a footer mismatch,
	// which returns ErrChecksum: a wrong magic, an unknown version, a short
	// stream, or a value that does not decode.
	ErrFormat, ErrChecksum error
}

// Encode writes v to w as one frame of the current version.
func (g *GobFrame) Encode(w io.Writer, v any) error {
	fw, err := NewFrameWriter(w, g.Magic)
	if err == nil {
		_, err = fw.Write(binary.LittleEndian.AppendUint32(make([]byte, 0, 4), g.Version))
	}
	if err == nil {
		err = gob.NewEncoder(fw).Encode(v)
	}
	if err == nil {
		err = fw.Close()
	}
	if err != nil {
		return fmt.Errorf("durable: write %s frame: %w", g.Magic, err)
	}
	return nil
}

// Decode reads one frame from r into v. It checks the magic, then the
// version, then the footer over everything before it, and only then
// decodes, so a damaged current-version frame never reaches gob.
func (g *GobFrame) Decode(r io.Reader, v any) error {
	m := len(g.Magic)
	head := make([]byte, m+4)
	if _, err := io.ReadFull(r, head[:m]); err != nil {
		return fmt.Errorf("%w: read magic: %w", g.ErrFormat, err)
	}
	if string(head[:m]) != g.Magic {
		return fmt.Errorf("%w: magic %q", g.ErrFormat, head[:m])
	}
	if _, err := io.ReadFull(r, head[m:]); err != nil {
		return fmt.Errorf("%w: read version: %w", g.ErrFormat, err)
	}
	var body io.Reader
	switch ver := binary.LittleEndian.Uint32(head[m:]); {
	case ver == g.Version:
		// gob.Decoder reads ahead, so the footer is split off first.
		rest, err := io.ReadAll(r)
		if err != nil {
			return fmt.Errorf("%w: read body: %w", g.ErrFormat, err)
		}
		if len(rest) < frameFooter {
			return fmt.Errorf("%w: truncated before checksum", g.ErrFormat)
		}
		data, foot := rest[:len(rest)-frameFooter], rest[len(rest)-frameFooter:]
		if crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, data) != binary.LittleEndian.Uint32(foot) {
			return g.ErrChecksum
		}
		body = bytes.NewReader(data)
	case ver == g.Legacy && ver != 0:
		body = r
	default:
		return fmt.Errorf("%w: version %d unsupported", g.ErrFormat, ver)
	}
	if err := gob.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("%w: decode: %w", g.ErrFormat, err)
	}
	return nil
}
