package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func mustOpenStore(t *testing.T) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	st := mustOpenStore(t)
	key := testKey("roundtrip")
	body := []byte("procs,latency_us\n2,1.57\n")

	if _, _, ok := st.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := st.Put(key, body, "micro", "csv"); err != nil {
		t.Fatal(err)
	}
	got, meta, ok := st.Get(key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("get after put: ok=%v body=%q", ok, got)
	}
	if meta.Scenario != "micro" || meta.Format != "csv" || meta.Bytes != len(body) {
		t.Errorf("meta = %+v", meta)
	}
	sum := sha256.Sum256(body)
	if meta.SHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("meta sha = %s", meta.SHA256)
	}

	// Layout contract: one file, <dir>/<hash[:2]>/<hash>.entry, holding
	// the header line and then the artifact verbatim — and nothing else
	// in the directory, so no temp droppings.
	files, _ := filepath.Glob(filepath.Join(st.Dir(), "*", "*"))
	if want := filepath.Join(st.Dir(), key[:2], key+".entry"); len(files) != 1 || files[0] != want {
		t.Fatalf("store holds %v, want exactly %s", files, want)
	}
	raw, _ := os.ReadFile(files[0])
	if header, rest, _ := bytes.Cut(raw, []byte("\n")); !bytes.Equal(rest, body) || !json.Valid(header) {
		t.Errorf("entry file = %q, want a JSON header line, then the artifact", raw)
	}
}

// A fresh Store over an existing directory serves prior entries — the
// restart-survival property — and Scan counts them. The scan also clears
// the temp file of a writer killed between CreateTemp and Rename, and
// only that: one as young as the store itself may be a Put in progress.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st1, _ := OpenStore(dir)
	body := []byte("artifact bytes")
	for _, seed := range []string{"a", "b", "c"} {
		if err := st1.Put(testKey(seed), body, "micro", "csv"); err != nil {
			t.Fatal(err)
		}
	}
	shard := filepath.Join(dir, testKey("a")[:2])
	stale, fresh := filepath.Join(shard, tempPrefix+"stale"), filepath.Join(shard, tempPrefix+"fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half an arti"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}

	st2, _ := OpenStore(dir)
	n, err := st2.Scan()
	if err != nil || n != 3 {
		t.Fatalf("scan of reopened store: n=%d err=%v, want 3", n, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("a dead writer's temp file survived the scan: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("the scan removed a temp file no older than the store: %v", err)
	}
	got, _, ok := st2.Get(testKey("b"))
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("reopened store missed a prior entry: ok=%v", ok)
	}
	if entries := st2.entries.Load(); entries != 3 {
		t.Errorf("entries = %d, want 3", entries)
	}
}

// corruptCase damages one stored entry in the given way: damage gets
// the entry's header line and artifact and returns the file's new bytes.
// Every variant must produce a miss, never bytes, and must move the
// damaged file aside as .bad.
func corruptCase(t *testing.T, damage func(header, body []byte) []byte) {
	t.Helper()
	st := mustOpenStore(t)
	key := testKey("victim")
	if err := st.Put(key, []byte("the original, correct artifact"), "micro", "csv"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), key[:2], key+".entry")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := bytes.Cut(raw, []byte("\n"))
	if err := os.WriteFile(path, damage(header, body), 0o644); err != nil {
		t.Fatal(err)
	}

	if body, _, ok := st.Get(key); ok {
		t.Fatalf("damaged entry served: %q", body)
	}
	if q := atomic.LoadUint64(&st.quarantined); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	// The damaged entry is out of the namespace (a future Get is a plain
	// miss, a future Put can land) and preserved as .bad evidence.
	if _, _, ok := st.Get(key); ok {
		t.Error("second get of a quarantined key hit")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("no .bad quarantine file left behind: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("entry still present after quarantine: %v", err)
	}
	// The slot is reusable: a clean re-put serves again.
	fresh := []byte("recomputed artifact")
	if err := st.Put(key, fresh, "micro", "csv"); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := st.Get(key); !ok || !bytes.Equal(got, fresh) {
		t.Errorf("re-put after quarantine: ok=%v body=%q", ok, got)
	}
}

// entry joins a header line and an artifact the way Put does.
func entry(header, body []byte) []byte {
	return append(append(bytes.Clone(header), '\n'), body...)
}

func TestStoreQuarantinesTruncatedBody(t *testing.T) {
	corruptCase(t, func(header, body []byte) []byte { return entry(header, body[:5]) })
}

func TestStoreQuarantinesCorruptedBody(t *testing.T) {
	corruptCase(t, func(header, body []byte) []byte {
		body[0] ^= 0xff // same length, wrong bytes: only the re-hash catches it
		return entry(header, body)
	})
}

// A header that declares the wrong length while its SHA-256 is right:
// only the length check catches it.
func TestStoreQuarantinesMislabelledLength(t *testing.T) {
	corruptCase(t, func(header, body []byte) []byte {
		var m StoreMeta
		if err := json.Unmarshal(header, &m); err != nil {
			t.Fatal(err)
		}
		m.Bytes++
		header, _ = json.Marshal(m)
		return entry(header, body)
	})
}

func TestStoreQuarantinesGarbageHeader(t *testing.T) {
	corruptCase(t, func(_, body []byte) []byte { return entry([]byte("{not json"), body) })
}

func TestStoreQuarantinesMismatchedHeaderKey(t *testing.T) {
	corruptCase(t, func(header, body []byte) []byte {
		return entry(bytes.Replace(header, []byte(testKey("victim")[:8]), []byte("deadbeef"), 1), body)
	})
}

// The artifact alone, with no header line.
func TestStoreQuarantinesHeaderlessEntry(t *testing.T) {
	corruptCase(t, func(_, body []byte) []byte { return body })
}

func TestStoreRejectsBadKeys(t *testing.T) {
	st := mustOpenStore(t)
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../../../../etc/passwd", testKey("x") + "z",
	} {
		if _, _, ok := st.Get(key); ok {
			t.Errorf("Get(%q) hit", key)
		}
		if err := st.Put(key, []byte("x"), "micro", "csv"); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
}

func TestStoreScanSkipsJunk(t *testing.T) {
	st := mustOpenStore(t)
	if err := st.Put(testKey("real"), []byte("x"), "micro", "csv"); err != nil {
		t.Fatal(err)
	}
	// Junk that a scan must not count: stray files, bad names, quarantine.
	junk := filepath.Join(st.Dir(), "zz")
	os.MkdirAll(junk, 0o755)
	os.WriteFile(filepath.Join(junk, "README"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(junk, "nothex.entry"), []byte("{}\n"), 0o644)
	bad := testKey("bad")
	os.MkdirAll(filepath.Join(st.Dir(), bad[:2]), 0o755)
	os.WriteFile(filepath.Join(st.Dir(), bad[:2], bad+".entry.bad"), []byte("{}\n"), 0o644)

	n, err := st.Scan()
	if err != nil || n != 1 {
		t.Fatalf("scan: n=%d err=%v, want 1", n, err)
	}
}

// The two-file layout an older simd wrote — <hash>.json, the artifact,
// beside <hash>.meta.json, its metadata — is not an entry: Scan does not
// count it and Get does not serve it or quarantine it. A Put of the same
// key lands beside it and serves.
func TestStoreIgnoresTwoFileLayout(t *testing.T) {
	st := mustOpenStore(t)
	key, body := testKey("old layout"), []byte("an artifact from before")
	meta, err := json.Marshal(StoreMeta{Key: key, Scenario: "micro", Format: "csv",
		Bytes: len(body), SHA256: sha256Hex(body), CreatedUnix: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(st.Dir(), key[:2])
	os.MkdirAll(dir, 0o755)
	for name, data := range map[string][]byte{key + ".json": body, key + ".meta.json": meta} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := st.Scan(); err != nil || n != 0 {
		t.Fatalf("scan of a two-file store: n=%d err=%v, want 0", n, err)
	}
	if got, _, ok := st.Get(key); ok || atomic.LoadUint64(&st.quarantined) != 0 {
		t.Fatalf("two-file entry: served %q (ok=%v), %d quarantined; want a plain miss",
			got, ok, atomic.LoadUint64(&st.quarantined))
	}
	fresh := []byte("recomputed artifact")
	if err := st.Put(key, fresh, "micro", "csv"); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := st.Get(key); !ok || !bytes.Equal(got, fresh) {
		t.Errorf("put over a two-file entry: ok=%v body=%q", ok, got)
	}
	if n, _ := st.Scan(); n != 1 {
		t.Errorf("scan after the put: n=%d, want 1", n)
	}
}
