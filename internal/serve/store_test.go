package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
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

	// Layout contract: <dir>/<hash[:2]>/<hash>.json plus the sidecar.
	if _, err := os.Stat(filepath.Join(st.Dir(), key[:2], key+".json")); err != nil {
		t.Errorf("artifact not at the content-addressed path: %v", err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), key[:2], key+".meta.json")); err != nil {
		t.Errorf("sidecar not at the content-addressed path: %v", err)
	}
	// No temp droppings.
	matches, _ := filepath.Glob(filepath.Join(st.Dir(), "*", ".put-*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
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
	if entries, _ := st2.Stats(); entries != 3 {
		t.Errorf("entries = %d, want 3", entries)
	}
}

// corrupt damages one stored entry in the given way and returns the
// store. Every variant must produce a miss, never bytes, and must move
// the damaged files aside as .bad.
func corruptCase(t *testing.T, damage func(bodyPath, metaPath string)) {
	t.Helper()
	st := mustOpenStore(t)
	key := testKey("victim")
	if err := st.Put(key, []byte("the original, correct artifact"), "micro", "csv"); err != nil {
		t.Fatal(err)
	}
	bodyPath := filepath.Join(st.Dir(), key[:2], key+".json")
	metaPath := filepath.Join(st.Dir(), key[:2], key+".meta.json")
	damage(bodyPath, metaPath)

	if body, _, ok := st.Get(key); ok {
		t.Fatalf("damaged entry served: %q", body)
	}
	if _, q := st.Stats(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	// The damaged entry is out of the namespace (a future Get is a plain
	// miss, a future Put can land) and preserved as .bad evidence.
	if _, _, ok := st.Get(key); ok {
		t.Error("second get of a quarantined key hit")
	}
	bad, _ := filepath.Glob(filepath.Join(st.Dir(), key[:2], "*.bad"))
	if len(bad) == 0 {
		t.Error("no .bad quarantine files left behind")
	}
	if _, err := os.Stat(metaPath); !os.IsNotExist(err) {
		t.Errorf("sidecar still present after quarantine: %v", err)
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

func TestStoreQuarantinesTruncatedBody(t *testing.T) {
	corruptCase(t, func(bodyPath, _ string) {
		if err := os.Truncate(bodyPath, 5); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreQuarantinesCorruptedBody(t *testing.T) {
	corruptCase(t, func(bodyPath, _ string) {
		raw, _ := os.ReadFile(bodyPath)
		raw[0] ^= 0xff // same length, wrong bytes: only the re-hash catches it
		if err := os.WriteFile(bodyPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreQuarantinesGarbageSidecar(t *testing.T) {
	corruptCase(t, func(_, metaPath string) {
		if err := os.WriteFile(metaPath, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreQuarantinesMismatchedSidecarKey(t *testing.T) {
	corruptCase(t, func(_, metaPath string) {
		raw, _ := os.ReadFile(metaPath)
		swapped := bytes.Replace(raw, []byte(testKey("victim")[:8]), []byte("deadbeef"), 1)
		if err := os.WriteFile(metaPath, swapped, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreQuarantinesOrphanBody(t *testing.T) {
	corruptCase(t, func(_, metaPath string) {
		if err := os.Remove(metaPath); err != nil {
			t.Fatal(err)
		}
	})
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
	// Junk that a scan must not count: stray files, bad names, orphans.
	junk := filepath.Join(st.Dir(), "zz")
	os.MkdirAll(junk, 0o755)
	os.WriteFile(filepath.Join(junk, "README"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(junk, "nothex.meta.json"), []byte("{}"), 0o644)
	orphan := testKey("orphan")
	os.MkdirAll(filepath.Join(st.Dir(), orphan[:2]), 0o755)
	os.WriteFile(filepath.Join(st.Dir(), orphan[:2], orphan+".meta.json"), []byte("{}"), 0o644)

	n, err := st.Scan()
	if err != nil || n != 1 {
		t.Fatalf("scan: n=%d err=%v, want 1", n, err)
	}
}
