package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
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
