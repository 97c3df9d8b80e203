package serve

// store.go is the persistent tier under the in-memory LRU: a
// content-addressed on-disk layout holding one rendered artifact per
// config hash, so results survive restarts and can be exported to
// cluster peers. Layout:
//
//	<dir>/<hash[:2]>/<hash>.json       the artifact bytes, verbatim
//	<dir>/<hash[:2]>/<hash>.meta.json  sidecar: scenario, format,
//	                                   length, artifact SHA-256
//
// Invariants:
//
//   - Writes are atomic (temp file in the same directory + rename), and
//     the body lands before its sidecar — a crash mid-put leaves either
//     nothing visible or an orphan body, never a readable-but-wrong
//     entry. The temp file of a writer killed before its rename is
//     removed by the next process's Scan.
//   - Reads verify: the body is re-hashed on every load and compared to
//     the sidecar's declared SHA-256. Truncation, corruption, garbage
//     sidecars, and orphaned halves are all quarantined (renamed with a
//     .bad suffix) and reported as a miss — a damaged entry is
//     re-executed, never served.
//   - Entries never go stale (results are pure functions of their key),
//     so there is no expiry and no invalidation; the store only grows,
//     bounded by the operator's disk.

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// StoreMeta is the sidecar contents for one stored artifact.
type StoreMeta struct {
	Key         string `json:"key"`      // config hash; must match the filename
	Scenario    string `json:"scenario"` // metrics / Content-Type material
	Format      string `json:"format"`   // csv | text | json
	Bytes       int    `json:"bytes"`
	SHA256      string `json:"sha256"` // hex SHA-256 of the artifact bytes
	CreatedUnix int64  `json:"created_unix"`
}

// Store is the disk tier. Safe for concurrent use: file operations are
// atomic renames, and the counters sit behind a mutex.
type Store struct {
	dir string
	// staleBefore is the open time less tempGrace: a temp file last
	// written before it belongs to a writer that died with an earlier
	// process, never to one of this store's own Puts.
	staleBefore time.Time

	mu          sync.Mutex
	entries     int64
	quarantined int64
}

// tempPrefix names writeAtomic's temp files.
const tempPrefix = ".put-"

// tempGrace keeps Scan off temp files written around the time the store
// was opened. File times come from the kernel's coarse clock, which runs
// behind time.Now (7 ms measured on the dev host), so a Put made right
// after OpenStore can carry an mtime from just before it.
const tempGrace = time.Second

// OpenStore opens (creating if needed) a persistent result store rooted
// at dir. The directory is not scanned here — call Scan (typically in
// the background, with /healthz reporting "starting" until it finishes)
// to count existing entries.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open store: %w", err)
	}
	return &Store{dir: dir, staleBefore: time.Now().Add(-tempGrace)}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// validStoreKey reports whether key is a well-formed config hash (64
// lowercase hex chars). Everything else is rejected before it can touch
// a path — /v1/results/{hash} feeds user input straight into Get.
func validStoreKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (st *Store) paths(key string) (body, meta string) {
	d := filepath.Join(st.dir, key[:2])
	return filepath.Join(d, key+".json"), filepath.Join(d, key+".meta.json")
}

// Get loads and verifies the artifact stored under key. A missing entry
// is a plain miss; a damaged one (truncated body, hash mismatch, garbage
// or mismatched sidecar, orphaned half) is quarantined and reported as a
// miss — the caller re-executes, it never serves bad bytes.
func (st *Store) Get(key string) ([]byte, StoreMeta, bool) {
	if !validStoreKey(key) {
		return nil, StoreMeta{}, false
	}
	bodyPath, metaPath := st.paths(key)
	metaRaw, metaErr := os.ReadFile(metaPath)
	body, bodyErr := os.ReadFile(bodyPath)
	switch {
	case metaErr != nil && bodyErr != nil:
		return nil, StoreMeta{}, false // plain miss
	case metaErr != nil || bodyErr != nil:
		// Orphaned half (interrupted put or manual damage): clear it out
		// of the namespace so a future put can land cleanly.
		st.quarantine(key)
		return nil, StoreMeta{}, false
	}
	var m StoreMeta
	if err := json.Unmarshal(metaRaw, &m); err != nil || m.Key != key || m.SHA256 == "" {
		st.quarantine(key)
		return nil, StoreMeta{}, false
	}
	if len(body) != m.Bytes {
		st.quarantine(key)
		return nil, StoreMeta{}, false
	}
	if sha256Hex(body) != m.SHA256 {
		st.quarantine(key)
		return nil, StoreMeta{}, false
	}
	return body, m, true
}

// Put stores body under key atomically. Re-putting an existing key is a
// no-op write of identical bytes (results are deterministic), so last
// rename winning is harmless.
func (st *Store) Put(key string, body []byte, scenario, format string) error {
	return st.putHashed(key, body, scenario, format, sha256Hex(body))
}

// putHashed is Put for a caller that already holds body's hex SHA-256
// (see Cache.putHashed).
func (st *Store) putHashed(key string, body []byte, scenario, format, sha string) error {
	if !validStoreKey(key) {
		return fmt.Errorf("serve: store put: bad key %q", key)
	}
	m := StoreMeta{
		Key: key, Scenario: scenario, Format: format,
		Bytes: len(body), SHA256: sha,
		CreatedUnix: time.Now().Unix(),
	}
	metaRaw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	bodyPath, metaPath := st.paths(key)
	if err := os.MkdirAll(filepath.Dir(bodyPath), 0o755); err != nil {
		return err
	}
	_, statErr := os.Stat(metaPath)
	// Body first, sidecar second: a reader only trusts an entry once the
	// sidecar is visible, and the sidecar only lands after the body did.
	if err := writeAtomic(bodyPath, body); err != nil {
		return err
	}
	if err := writeAtomic(metaPath, metaRaw); err != nil {
		return err
	}
	if statErr != nil { // no prior sidecar: the key is new
		st.mu.Lock()
		st.entries++
		st.mu.Unlock()
	}
	return nil
}

// writeAtomic writes data to path via a temp file + rename in the same
// directory, so a concurrent reader sees either the old file or the
// complete new one, never a partial write.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// quarantine renames both halves of a damaged entry with a .bad suffix
// (keeping the evidence for a human) and counts it. Any half that fails
// to rename is left behind; it will simply be quarantined again on the
// next touch.
func (st *Store) quarantine(key string) {
	bodyPath, metaPath := st.paths(key)
	moved := false
	for _, p := range []string{bodyPath, metaPath} {
		if _, err := os.Stat(p); err == nil {
			if os.Rename(p, p+".bad") == nil {
				moved = true
			}
		}
	}
	if moved {
		st.mu.Lock()
		st.quarantined++
		st.mu.Unlock()
	}
}

// Scan walks the store counting complete entries (body + sidecar pairs
// with well-formed names). It does not verify contents — verification is
// lazy, on each Get — so startup cost is one directory walk, not a
// re-hash of the whole store. Returns the entry count.
//
// The walk also removes the temp files of writers killed mid-Put — those
// from before this store was opened only, because the scan runs in the
// background while the server is already taking Puts of its own.
func (st *Store) Scan() (int, error) {
	n := 0
	err := filepath.WalkDir(st.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tempPrefix) {
			if info, err := d.Info(); err == nil && info.ModTime().Before(st.staleBefore) {
				os.Remove(path) // best effort: the next scan tries again
			}
			return nil
		}
		if !strings.HasSuffix(name, ".meta.json") {
			return nil
		}
		key := strings.TrimSuffix(name, ".meta.json")
		if !validStoreKey(key) {
			return nil
		}
		if _, err := os.Stat(strings.TrimSuffix(path, ".meta.json") + ".json"); err == nil {
			n++
		}
		return nil
	})
	st.mu.Lock()
	st.entries = int64(n)
	st.mu.Unlock()
	return n, err
}

// Stats returns the known entry count (Scan plus subsequent Puts) and
// the cumulative quarantine count.
func (st *Store) Stats() (entries, quarantined int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries, st.quarantined
}
