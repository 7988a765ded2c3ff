// Package atomicfile replaces files so that a crash at any point
// leaves either the old complete file or the new complete file, never
// a partial write or a rename that is lost after it was reported done.
package atomicfile

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with the bytes fill writes. The payload goes to
// a temp file in the same directory, which is flushed, fsynced and
// renamed over path; then the directory itself is fsynced so the
// rename survives a crash. On an error before the rename, the temp
// file is removed and path is left as it was.
func Write(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync
	return d.Sync()
}
