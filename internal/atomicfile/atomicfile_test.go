package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// onlyFile fails unless dir holds exactly the one file name.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("dir holds %v, want only %s", names, name)
	}
}

func TestWriteReplacesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	for _, want := range []string{"first", "second, longer"} {
		if err := Write(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("file holds %q, want %q", got, want)
		}
	}
	onlyFile(t, dir, "state")
}

func TestFailedWriteKeepsOldFileAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := Write(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write error = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("failed write changed the file to %q", got)
	}
	onlyFile(t, dir, "state")
}
