// Package durable makes experiment runs crash-safe with one store: a
// content-addressed result cache keyed by a canonical hash of each
// cell's inputs. A finished cell's row is filed as it retires, each
// entry written whole by WriteFileAtomic, so a run killed at any point
// leaves whole entries or none, and a rerun over the same directory
// serves every entry it finds and computes only the rest. The package
// is payload-agnostic: result payloads travel as canonical JSON, so
// the report layer above owns the row schema and durable owns only
// identity and atomicity.
package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"isacmp/internal/simeng"
)

// WriteFileAtomic writes data to path with full-file atomicity: the
// bytes land in a temporary file in the same directory, are fsync'd,
// and are renamed over the target; the directory is fsync'd last so
// the rename itself is durable. A reader can observe the old file or
// the new file but never a torn mixture — the property the manifest
// writer, flight recorder, benchmark documents and cache entries all
// rely on.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("%w: atomic write %s: %v", simeng.ErrIO, path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("%w: atomic write %s: %v", simeng.ErrIO, path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("%w: atomic write %s: sync: %v", simeng.ErrIO, path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("%w: atomic write %s: close: %v", simeng.ErrIO, path, err)
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		return fmt.Errorf("%w: atomic write %s: chmod: %v", simeng.ErrIO, path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("%w: atomic write %s: rename: %v", simeng.ErrIO, path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a
// crash. Filesystems that refuse to sync directories (some CI
// overlays) are tolerated: the rename is still atomic, only its
// durability window widens.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
