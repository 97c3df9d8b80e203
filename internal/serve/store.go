package serve

// store.go is the persistent tier under the in-memory LRU: a
// content-addressed on-disk layout holding one rendered artifact per
// config hash, so results survive restarts and can be exported to
// cluster peers. Each entry is one file:
//
//	<dir>/<hash[:2]>/<hash>.entry   the StoreMeta JSON line (scenario,
//	                                format, length, artifact SHA-256),
//	                                then the artifact bytes, verbatim
//
// Invariants:
//
//   - Writes are atomic (temp file in the same directory + rename): a
//     crash mid-put leaves nothing visible, never a readable-but-wrong
//     entry. The temp file of a writer killed before its rename is
//     removed by the next process's Scan.
//   - Reads verify: the artifact is re-hashed on every load and compared
//     to its header's declared SHA-256. Truncation, corruption and a
//     garbage or mismatched header are all quarantined (renamed with a
//     .bad suffix) and reported as a miss — a damaged entry is
//     re-executed, never served.
//   - Entries never go stale (results are pure functions of their key),
//     so there is no expiry and no invalidation; the store only grows,
//     bounded by the operator's disk. For the same reason an older
//     layout's files are not read at all: such a store reads as empty,
//     and its keys are executed and stored again as they are asked for.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// StoreMeta is the header line of one stored entry.
type StoreMeta struct {
	Key         string `json:"key"`      // config hash; must match the filename
	Scenario    string `json:"scenario"` // metrics / Content-Type material
	Format      string `json:"format"`   // csv | text | json
	Bytes       int    `json:"bytes"`
	SHA256      string `json:"sha256"` // hex SHA-256 of the artifact bytes
	CreatedUnix int64  `json:"created_unix"`
}

// Store is the disk tier. Safe for concurrent use: file operations are
// atomic renames, and the two counts move atomically.
type Store struct {
	quarantined uint64       // first: attached to the registry, so 64-bit aligned
	entries     atomic.Int64 // Scan's count plus later Puts of new keys
	dir         string
	// staleBefore is the open time less tempGrace: a temp file last
	// written before it belongs to a writer that died with an earlier
	// process, never to one of this store's own Puts.
	staleBefore time.Time
}

// tempPrefix names Put's temp files.
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

// entrySuffix names a stored entry's file: <hash>.entry.
const entrySuffix = ".entry"

func (st *Store) path(key string) string {
	return filepath.Join(st.dir, key[:2], key+entrySuffix)
}

// Get loads and verifies the artifact stored under key. A missing entry
// is a plain miss; a damaged one (no header line, a garbage or
// mismatched header, a truncated or altered artifact) is quarantined and
// reported as a miss — the caller re-executes, it never serves bad bytes.
func (st *Store) Get(key string) ([]byte, StoreMeta, bool) {
	if !validStoreKey(key) {
		return nil, StoreMeta{}, false
	}
	raw, err := os.ReadFile(st.path(key))
	if err != nil {
		return nil, StoreMeta{}, false // plain miss
	}
	var m StoreMeta
	header, body, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok || json.Unmarshal(header, &m) != nil || m.Key != key ||
		len(body) != m.Bytes || sha256Hex(body) != m.SHA256 {
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
// (see Cache.put). The entry is written with one temp file and one
// rename, so a concurrent reader sees what was there before or the
// complete entry, never a partial write.
func (st *Store) putHashed(key string, body []byte, scenario, format, sha string) error {
	if !validStoreKey(key) {
		return fmt.Errorf("serve: store put: bad key %q", key)
	}
	header, err := json.Marshal(StoreMeta{
		Key: key, Scenario: scenario, Format: format,
		Bytes: len(body), SHA256: sha,
		CreatedUnix: time.Now().Unix(),
	})
	if err != nil {
		return err
	}
	path := st.path(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	_, statErr := os.Stat(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(append(header, '\n'), body...))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if statErr != nil { // no prior entry: the key is new
		st.entries.Add(1)
	}
	return nil
}

// quarantine renames a damaged entry with a .bad suffix (keeping the
// evidence for a human) and counts it. An entry that fails to rename is
// left in place; it will simply be quarantined again on the next touch.
func (st *Store) quarantine(key string) {
	p := st.path(key)
	if os.Rename(p, p+".bad") == nil {
		atomic.AddUint64(&st.quarantined, 1)
	}
}

// Scan walks the store counting entries (files with well-formed names).
// It does not verify contents — verification is lazy, on each Get — so
// startup cost is one directory walk, not a re-hash of the whole store.
// Returns the entry count.
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
		if key, ok := strings.CutSuffix(name, entrySuffix); ok && validStoreKey(key) {
			n++
		}
		return nil
	})
	st.entries.Store(int64(n))
	return n, err
}
