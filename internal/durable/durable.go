// Package durable provides the crash-safety primitives the daemons' state
// directories are built from: atomic snapshot files (write-to-temp, fsync,
// rename), checksummed frames, the versioned gob frame every state codec
// shares, the record stream both daemons' snapshots are written as, and a
// write-ahead log of opaque batch records with per-record
// checksums and torn-tail recovery.
//
// The package owns the framing, not the contents: the core, rrd and preddb
// packages each declare a GobFrame with their own magic, version and error
// sentinels and choose what goes in it, and a log record is opaque bytes.
// It guarantees that a state file is either the complete old version or the
// complete new version, never a torn mixture, that a damaged frame is
// refused before any of it is decoded, and that WAL records survive up to
// the last fsync.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file via write(w), an fsync, and an atomic rename
// into place, then fsyncs the directory so the rename itself is durable. A
// crash at any point leaves either the previous file content or the new one,
// never a prefix. The temp file is created in the target's directory so the
// rename cannot cross filesystems.
func WriteFileAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("durable: create temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", filepath.Base(path), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", filepath.Base(path), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: rename into place: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return err
	}
	return nil
}

// syncDir fsyncs a directory, making a completed rename durable. Filesystems
// that do not support directory fsync (some CI tmpfs setups) report an
// error; the rename is still atomic, so the error is ignored there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir: %w", err)
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// Quarantine moves a corrupt state file aside by renaming it to
// "<path>.corrupt", replacing any previous quarantined copy, and returns the
// new location. The original path becomes free for a cold-start rewrite
// while the corrupt bytes stay on disk for forensics.
func Quarantine(path string) (string, error) {
	q := path + ".corrupt"
	if err := os.Rename(path, q); err != nil {
		return "", fmt.Errorf("durable: quarantine %s: %w", filepath.Base(path), err)
	}
	_ = syncDir(filepath.Dir(path))
	return q, nil
}
