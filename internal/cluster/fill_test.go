package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakePeer serves a canned /v1/results/{hash} response with a declared
// sha that may or may not match the body.
func fakePeer(t *testing.T, body []byte, declaredSHA string, status int) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/results/") {
			http.NotFound(w, r)
			return
		}
		if declaredSHA != "" {
			w.Header().Set(SHAHeader, declaredSHA)
		}
		w.Header().Set(ScenarioHeader, "micro")
		w.Header().Set(FormatHeader, "csv")
		w.WriteHeader(status)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestFillerFetchVerified(t *testing.T) {
	body := []byte("procs,latency\n2,42\n")
	sum := sha256.Sum256(body)
	peer := fakePeer(t, body, hex.EncodeToString(sum[:]), http.StatusOK)

	res, err := NewFiller(time.Second).Fetch(context.Background(), peer, strings.Repeat("ab", 32))
	if err != nil {
		t.Fatalf("verified fetch failed: %v", err)
	}
	if string(res.Body) != string(body) || res.Scenario != "micro" || res.Format != "csv" {
		t.Errorf("fetch returned %+v", res)
	}
	if res.SHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("sha = %s", res.SHA256)
	}
}

// A peer declaring the wrong sha (corrupt store, truncated transfer)
// must be rejected — the fill layer never imports unverified bytes.
func TestFillerRejectsCorruptBytes(t *testing.T) {
	body := []byte("procs,latency\n2,42\n")
	wrong := sha256.Sum256([]byte("something else"))
	peer := fakePeer(t, body, hex.EncodeToString(wrong[:]), http.StatusOK)
	if _, err := NewFiller(time.Second).Fetch(context.Background(), peer, strings.Repeat("ab", 32)); err == nil {
		t.Fatal("corrupt fill accepted")
	}
}

func TestFillerRejectsMissingSHAHeader(t *testing.T) {
	peer := fakePeer(t, []byte("x"), "", http.StatusOK)
	if _, err := NewFiller(time.Second).Fetch(context.Background(), peer, strings.Repeat("ab", 32)); err == nil {
		t.Fatal("fill without a declared sha accepted")
	}
}

func TestFillerNotFound(t *testing.T) {
	peer := fakePeer(t, []byte("nope"), "", http.StatusNotFound)
	_, err := NewFiller(time.Second).Fetch(context.Background(), peer, strings.Repeat("ab", 32))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// FuzzFillVerify drives Fetch against a peer whose answer the input
// makes: body, declared sha ("=" declares the body's own sha256, "" none
// at all, anything else is sent verbatim), status, and a cut that, short
// of the body, closes the connection after that many bytes of a response
// framed for all of them. The filler's limit is lowered to 64 bytes so an
// oversize body is a few bytes long. A fill must succeed exactly when the
// status is 200, every byte arrived, the declared sha matches and the body
// is within the limit, and then return those bytes; a 404 is ErrNotFound;
// anything else is an error that is not ErrNotFound.
func FuzzFillVerify(f *testing.F) {
	const limit = 64
	statuses := []int{http.StatusOK, http.StatusNotFound, http.StatusInternalServerError, http.StatusPartialContent}
	type answer struct {
		body     []byte
		declared string
		status   int
		cut      int
	}
	var (
		mu  sync.Mutex
		cur answer
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		a := cur
		mu.Unlock()
		if a.declared != "" {
			w.Header().Set(SHAHeader, a.declared)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(a.body)))
		w.WriteHeader(a.status)
		w.Write(a.body[:min(a.cut, len(a.body))])
	}))
	f.Cleanup(ts.Close)
	peer := strings.TrimPrefix(ts.URL, "http://")
	filler := NewFiller(time.Second)
	filler.limit = limit

	body := []byte("procs,latency\n2,42\n")
	f.Add(body, "=", uint8(0), uint16(len(body)))                // a matching body
	f.Add(body, "=", uint8(0), uint16(5))                        // a truncated body
	f.Add(body, strings.Repeat("0f", 32), uint8(0), uint16(100)) // a wrong sha
	f.Add(body, "", uint8(0), uint16(100))                       // a missing header
	f.Add([]byte("nope"), "", uint8(1), uint16(100))             // a 404
	f.Add(make([]byte, limit+1), "=", uint8(0), uint16(limit+1)) // one byte over the limit
	f.Fuzz(func(t *testing.T, body []byte, sha string, status uint8, cut uint16) {
		if strings.ContainsFunc(sha, func(r rune) bool { return r <= ' ' || r > '~' }) {
			t.Skip("a header value is sent as visible ASCII; HTTP respells blanks and controls")
		}
		sum := sha256.Sum256(body)
		want := hex.EncodeToString(sum[:])
		a := answer{body: body, declared: sha, status: statuses[int(status)%len(statuses)], cut: int(cut)}
		if sha == "=" {
			a.declared = want
		}
		mu.Lock()
		cur = a
		mu.Unlock()

		res, err := filler.Fetch(context.Background(), peer, strings.Repeat("ab", 32))
		accept := a.status == http.StatusOK && a.cut >= len(body) &&
			a.declared == want && len(body) <= limit
		switch {
		case accept:
			if err != nil {
				t.Fatalf("verified fill refused: %v", err)
			}
			if !bytes.Equal(res.Body, body) || res.SHA256 != want {
				t.Fatalf("fill returned %q (sha %s), want %q (sha %s)", res.Body, res.SHA256, body, want)
			}
		case a.status == http.StatusNotFound:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("404: err = %v, want ErrNotFound", err)
			}
		case err == nil:
			t.Fatalf("unverifiable fill accepted: status %d, %d of %d bytes, declared %q",
				a.status, min(a.cut, len(body)), len(body), a.declared)
		case errors.Is(err, ErrNotFound):
			t.Fatalf("status %d refused as ErrNotFound: %v", a.status, err)
		}
	})
}

func TestFillerDeadPeerFailsFast(t *testing.T) {
	t0 := time.Now()
	_, err := NewFiller(500*time.Millisecond).Fetch(context.Background(),
		"127.0.0.1:1", strings.Repeat("ab", 32)) // port 1: nothing listens
	if err == nil {
		t.Fatal("fetch from dead peer succeeded")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("dead-peer fetch took %v, want fast failure", d)
	}
}
