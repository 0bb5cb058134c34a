package faults

import (
	"fmt"
	"os"
)

// Disk fault injector for durability testing: deliberate corruption of a
// snapshot file so recovery paths (checksum verification, quarantine) can be
// exercised without real media damage. It complements the stream injectors
// above, which corrupt data in flight; this corrupts data at rest.

// FlipBit inverts one bit of the file, simulating silent media corruption.
// offset is the byte position; a negative offset counts back from the end of
// the file (-1 is the last byte). bit selects the bit within that byte
// (0 = least significant).
func FlipBit(path string, offset int64, bit uint) error {
	if bit > 7 {
		return fmt.Errorf("faults: bit index %d > 7", bit)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("faults: flip bit: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("faults: flip bit: %w", err)
	}
	if offset < 0 {
		offset += info.Size()
	}
	if offset < 0 || offset >= info.Size() {
		return fmt.Errorf("faults: flip bit: offset %d outside file of %d bytes", offset, info.Size())
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return fmt.Errorf("faults: flip bit: %w", err)
	}
	b[0] ^= 1 << bit
	if _, err := f.WriteAt(b[:], offset); err != nil {
		return fmt.Errorf("faults: flip bit: %w", err)
	}
	return f.Sync()
}
