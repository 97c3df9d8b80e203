package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// seedJobBodies gives a fuzz target the job bodies the tree already
// pins: the frozen wire table, every catalogued scenario with its
// defaults spelled out, the example specs, and the tests' composed job.
func seedJobBodies(f *testing.F) {
	for _, row := range loadWireFreeze(f).Rows {
		f.Add([]byte(row.Body))
	}
	catalog, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios_catalog.json"))
	if err != nil {
		f.Fatal(err)
	}
	var entries []struct {
		Name     string          `json:"name"`
		Defaults json.RawMessage `json:"defaults"`
	}
	if err := json.Unmarshal(catalog, &entries); err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if e.Defaults != nil {
			f.Add([]byte(`{"scenario":"` + e.Name + `","params":` + string(e.Defaults) + `}`))
		}
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("examples/*.json: %v (found %d)", err, len(examples))
	}
	for _, path := range examples {
		f.Add([]byte(exampleCompose(f, filepath.Base(path))))
	}
	f.Add([]byte(fastCompose))
}

// FuzzJobCanonIdempotent holds the job constructor to what the proxy hop
// relies on. A replica that does not own a key re-submits exactly j.body
// to the owner, which builds its job from those bytes: for any body
// either envelope accepts, parsing the canonical body again must give the
// same key and the same bytes, or the owner would run, cache and answer
// for a different job than the one the client sent. A body that is
// rejected must be rejected with an error, not a panic.
func FuzzJobCanonIdempotent(f *testing.F) {
	seedJobBodies(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range []envelopeKind{scenarioEnvelope, composeEnvelope} {
			j, err := parseJob(bytes.NewReader(body), kind.new())
			if err != nil {
				continue
			}
			again, err := parseJob(bytes.NewReader(j.body), kind.new())
			if err != nil {
				t.Fatalf("%q is accepted, its canonical form %q is not: %v", body, j.body, err)
			}
			if again.key != j.key || !bytes.Equal(again.body, j.body) {
				t.Fatalf("%q: canonical form moves when parsed again:\n%s %s\n%s %s",
					body, j.key, j.body, again.key, again.body)
			}
		}
	})
}

// FuzzStoreGet holds the disk tier's read to its one promise: bytes on
// disk are served only when their header vouches for them. Any entry
// bytes are written under a valid key, as a damaged disk, a bad restore
// or another process could leave them. Get must not panic; it answers ok
// exactly when the bytes before the first newline are JSON naming this
// key, the length of the bytes after it and their SHA-256 — and then
// answers those bytes, the file untouched on disk — and otherwise the
// file is moved aside as .bad and the quarantine count goes up by one.
// Seeds: every frozen wire body under the header Put would write, and
// damaged versions of a few.
func FuzzStoreGet(f *testing.F) {
	key := testKey("fuzz")
	header := func(body []byte, n int) []byte {
		m, err := json.Marshal(StoreMeta{Key: key, Scenario: "micro", Format: "csv",
			Bytes: n, SHA256: sha256Hex(body), CreatedUnix: 1})
		if err != nil {
			f.Fatal(err)
		}
		return m
	}
	for i, row := range loadWireFreeze(f).Rows {
		body := []byte(row.Body)
		h := header(body, len(body))
		f.Add(entry(h, body))
		if i%20 == 0 {
			flipped := bytes.Clone(body)
			flipped[0] ^= 1
			f.Add(entry(h, flipped))                                                     // same length, other bytes
			f.Add(entry(h, body[:len(body)/2]))                                          // truncated
			f.Add(entry(bytes.Replace(h, []byte(key[:8]), []byte("deadbeef"), 1), body)) // another key
			f.Add(entry(h[1:], body))                                                    // not JSON
			f.Add(entry(header(body, len(body)+1), body))                                // wrong length, right sha
			f.Add(body)                                                                  // the artifact alone
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := st.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var m StoreMeta
		head, body, found := bytes.Cut(raw, []byte("\n"))
		sum := sha256.Sum256(body)
		sha := hex.EncodeToString(sum[:])
		vouched := found && json.Unmarshal(head, &m) == nil && m.Key == key && m.Bytes == len(body) && m.SHA256 == sha

		got, gotMeta, ok := st.Get(key)
		quarantined := atomic.LoadUint64(&st.quarantined)
		if ok != vouched {
			t.Fatalf("Get ok=%v for entry %q (vouched for: %v)", ok, raw, vouched)
		}
		onDisk := path
		if ok {
			if !bytes.Equal(got, body) || gotMeta.Key != key || gotMeta.Bytes != len(body) || gotMeta.SHA256 != sha {
				t.Fatalf("served %q with %+v for entry %q", got, gotMeta, raw)
			}
			if quarantined != 0 {
				t.Fatalf("a served entry counted %d quarantines", quarantined)
			}
		} else {
			if got != nil || quarantined != 1 {
				t.Fatalf("refused entry: %q served, %d quarantines, want none and 1", got, quarantined)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("refused entry still in place (%v)", err)
			}
			onDisk = path + ".bad"
		}
		if data, err := os.ReadFile(onDisk); err != nil || !bytes.Equal(data, raw) {
			t.Fatalf("%s: %q, %v; want the bytes written", filepath.Base(onDisk), data, err)
		}
	})
}

// FuzzParseMemoAgrees holds a memo-carrying server to the parse it
// skips. For any bytes on either route, the first post (a full parse) and
// the second (the memo's answer, when the bytes were accepted) must agree
// in status, X-Config-Hash, X-Scenario, content type and body, and both
// must agree with a fresh parseJob of the same bytes: its key and labels
// when it accepts, its error's wire form when it refuses. An accepted
// body and its canonical re-spelling share a hash and never a memo entry,
// and a refused body never gets one. Nothing executes: the target plants
// an artifact under the key before it posts.
func FuzzParseMemoAgrees(f *testing.F) {
	seedJobBodies(f)
	s := New(Options{Workers: 1, SweepWorkers: 1})
	f.Cleanup(s.Close)
	h := s.Handler()
	artifact := []byte("planted\n")

	f.Fuzz(func(t *testing.T, body []byte) {
		for kind, path := range []string{scenarioEnvelope: "/v1/run", composeEnvelope: "/v1/compose"} {
			kind := envelopeKind(kind)
			j, perr := parseJob(bytes.NewReader(body), kind.new())
			wantStatus, wantBody := http.StatusOK, artifact
			switch {
			case len(body) > maxBodyBytes:
				return
			case perr != nil:
				var buf bytes.Buffer
				json.NewEncoder(&buf).Encode(errorFrom(perr))
				wantStatus, wantBody = http.StatusBadRequest, buf.Bytes()
			default:
				s.cache.Put(j.key, artifact, j.scenario, j.format)
			}
			check := func(what string, rec *httptest.ResponseRecorder) {
				t.Helper()
				if rec.Code != wantStatus || !bytes.Equal(rec.Body.Bytes(), wantBody) {
					t.Fatalf("%s of %q to %s: %d %q, want %d %q", what, body, path, rec.Code, rec.Body, wantStatus, wantBody)
				}
				if perr != nil {
					return
				}
				hdr := rec.Header()
				if hdr.Get("X-Config-Hash") != j.key || hdr.Get("X-Scenario") != j.scenario ||
					hdr.Get("Content-Type") != contentTypeFor(j.format) || hdr.Get("X-Cache") != "hit" {
					t.Fatalf("%s of %q to %s: headers %v, want key %s scenario %s format %s from the LRU",
						what, body, path, hdr, j.key, j.scenario, j.format)
				}
			}
			check("first post", serveBody(h, path, body))
			hits := memoFields(s.memo).hits
			check("second post", serveBody(h, path, body))
			id := s.memo.peek(kind, body)
			if perr != nil {
				if id != nil {
					t.Fatalf("%q is refused on %s and memoised", body, path)
				}
				continue
			}
			if fits := int64(len(body)) <= parseMemoMaxEntry-512; fits && (id == nil || memoFields(s.memo).hits != hits+1) {
				t.Fatalf("%q: second post to %s was not answered from the memo", body, path)
			}
			if bytes.Equal(j.body, body) {
				continue
			}
			check("canonical re-spelling", serveBody(h, path, j.body))
			if canon := s.memo.peek(kind, j.body); canon != nil && canon == id {
				t.Fatalf("%q and its canonical form %q share a memo entry", body, j.body)
			}
		}
	})
}
