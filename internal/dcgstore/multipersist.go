package dcgstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gocbs/internal/api"
	"gocbs/internal/atomicfile"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// Multi checkpointing.
//
// The default substore keeps the pre-versioning file pair
// (store.dcgb + pushers.seq) so a state directory written by an older
// daemon restores unchanged. Each keyed substore adds its own pair
// named by the canonical "program@version" key — '@' appears in
// neither the program-name nor version alphabet, so the mapping between
// keys and file names is a bijection — plus the registered manifest and
// the carried-forward graph (kept so per-version conservation
// accounting survives a restart). An index file commits the key set:
//
//	graph-<program>@<version>.dcgb     the substore graph
//	seqs-<program>@<version>.seq       its per-pusher high-water marks
//	manifest-<program>@<version>.json  the registered manifest, if any
//	carried-<program>@<version>.dcgb   the carried-in graph, if any
//	versions.json                      key list + per-program succession
//
// Per-substore, sequences are written before the graph for the same
// reason SaveCheckpoint orders them that way: a crash between the two
// renames must only ever drop a retried increment, never double-count
// one. The index is written last; a crash before it leaves orphan
// substore files that the next restore simply ignores.

// MultiIndexFile is the keyed-checkpoint index inside a state
// directory.
const MultiIndexFile = "versions.json"

type multiIndex struct {
	Keys   []api.ProgramKey  `json:"keys"`
	Latest map[string]string `json:"latest"`
}

func keyFile(prefix string, key api.ProgramKey, ext string) string {
	return prefix + "-" + key.String() + ext
}

// SaveMultiCheckpoint writes a checkpoint of the default substore (the
// legacy file pair) and every keyed substore into dir.
func SaveMultiCheckpoint(dir string, m *Multi) error {
	if err := SaveCheckpoint(dir, m.Default()); err != nil {
		return err
	}
	keys := m.Keys()
	for _, key := range keys {
		sub := m.Lookup(key)
		if sub == nil {
			continue
		}
		g, seqs := sub.CheckpointState()
		if err := atomicfile.Write(filepath.Join(dir, keyFile("seqs", key, ".seq")), func(w io.Writer) error {
			return writeSequences(w, seqs)
		}); err != nil {
			return fmt.Errorf("checkpoint %s sequences: %w", key.String(), err)
		}
		if err := atomicfile.Write(filepath.Join(dir, keyFile("graph", key, ".dcgb")), func(w io.Writer) error {
			_, err := g.WriteTo(w)
			return err
		}); err != nil {
			return fmt.Errorf("checkpoint %s graph: %w", key.String(), err)
		}
		if man := m.Manifest(key); man != nil {
			if err := atomicfile.Write(filepath.Join(dir, keyFile("manifest", key, ".json")), func(w io.Writer) error {
				_, err := w.Write(man.Encode())
				return err
			}); err != nil {
				return fmt.Errorf("checkpoint %s manifest: %w", key.String(), err)
			}
		}
		if c := m.Carried(key); c != nil {
			if err := atomicfile.Write(filepath.Join(dir, keyFile("carried", key, ".dcgb")), func(w io.Writer) error {
				_, err := c.WriteTo(w)
				return err
			}); err != nil {
				return fmt.Errorf("checkpoint %s carried: %w", key.String(), err)
			}
		}
	}
	idx := multiIndex{Keys: keys, Latest: make(map[string]string)}
	m.mu.RLock()
	for p, v := range m.latest {
		idx.Latest[p] = v
	}
	m.mu.RUnlock()
	if err := atomicfile.Write(filepath.Join(dir, MultiIndexFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(idx)
	}); err != nil {
		return fmt.Errorf("checkpoint index: %w", err)
	}
	return nil
}

// readDCGFile loads one DCGB file, returning nil (no error) when the
// file does not exist.
func readDCGFile(path string) (*profile.DCG, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return profile.ReadDCG(bytes.NewReader(b))
}

// RestoreMultiCheckpoint loads dir's checkpoint — legacy pair plus
// keyed substores — into m and reports whether any checkpoint existed.
// Call it on an empty Multi before serving traffic. A corrupt keyed
// file is an error (like the legacy loader, silently dropping it would
// corrupt weights); a key listed in the index with no graph file is
// skipped.
func RestoreMultiCheckpoint(m *Multi, dir string) (bool, error) {
	restored, err := RestoreCheckpoint(m.Default(), dir)
	if err != nil {
		return restored, err
	}
	idxBytes, err := os.ReadFile(filepath.Join(dir, MultiIndexFile))
	if os.IsNotExist(err) {
		return restored, nil
	}
	if err != nil {
		return restored, fmt.Errorf("checkpoint index: %w", err)
	}
	var idx multiIndex
	if err := json.Unmarshal(idxBytes, &idx); err != nil {
		return restored, fmt.Errorf("checkpoint index %s: %w", MultiIndexFile, err)
	}
	for _, key := range idx.Keys {
		if !validKey(key) {
			return restored, fmt.Errorf("checkpoint index: bad key %q", key.String())
		}
		g, err := readDCGFile(filepath.Join(dir, keyFile("graph", key, ".dcgb")))
		if err != nil {
			return restored, fmt.Errorf("checkpoint %s graph: %w", key.String(), err)
		}
		if g == nil {
			continue
		}
		sub := m.For(key)
		if sub == nil {
			return restored, fmt.Errorf("checkpoint: program ledger full restoring %s", key.String())
		}
		sub.MergeDCG(g)
		if sf, err := os.Open(filepath.Join(dir, keyFile("seqs", key, ".seq"))); err == nil {
			seqs, serr := readSequences(sf)
			sf.Close()
			if serr != nil {
				return restored, fmt.Errorf("checkpoint %s sequences: %w", key.String(), serr)
			}
			sub.RestoreSequences(seqs)
		} else if !os.IsNotExist(err) {
			return restored, fmt.Errorf("checkpoint %s sequences: %w", key.String(), err)
		}
		if mb, err := os.ReadFile(filepath.Join(dir, keyFile("manifest", key, ".json"))); err == nil {
			man, merr := bytecode.DecodeManifest(bytes.NewReader(mb))
			if merr != nil {
				return restored, fmt.Errorf("checkpoint %s manifest: %w", key.String(), merr)
			}
			m.mu.Lock()
			m.manifests[key] = man
			m.manifestOrder = append(m.manifestOrder, key)
			m.mu.Unlock()
		} else if !os.IsNotExist(err) {
			return restored, fmt.Errorf("checkpoint %s manifest: %w", key.String(), err)
		}
		c, err := readDCGFile(filepath.Join(dir, keyFile("carried", key, ".dcgb")))
		if err != nil {
			return restored, fmt.Errorf("checkpoint %s carried: %w", key.String(), err)
		}
		if c != nil {
			m.mu.Lock()
			m.carried[key] = c
			m.mu.Unlock()
		}
		restored = true
	}
	m.mu.Lock()
	for p, v := range idx.Latest {
		if len(p) > 0 && len(p) <= 64 && api.ValidProgramVersion(v) {
			m.latest[p] = v
		}
	}
	m.mu.Unlock()
	return restored, nil
}
