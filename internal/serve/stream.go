package serve

// stream.go is the HTTP face of the run registry: the listing and
// introspection endpoints plus the SSE live-attach stream. The stream is
// a straight replay of the run's append-only event log — a subscriber
// attaching at any moment writes the log from index 0, so early and late
// attachers always receive identical bytes. Slow consumers cost nothing:
// an SSE write blocks only that subscriber's handler goroutine, never
// the simulation (the emitter appends to the log and moves on).

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// noStore stamps the cache hygiene headers: live observability payloads
// (and artifact responses keyed by POST bodies) must never be served
// from an intermediary cache.
func noStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	noStore(w)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleRuns is GET /v1/runs: every retained run, admission order.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	infos := s.runs.list()
	if infos == nil {
		infos = []RunInfo{}
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleRunGet is GET /v1/runs/{id}. A run evicted from the registry whose
// artifact a local tier still holds answers with a synthesized done record
// (evicted=true) instead of a 404 — the artifact, which is the run's
// identity, is still addressable.
func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if run := s.runs.get(id); run != nil {
		writeJSON(w, http.StatusOK, run.Info())
		return
	}
	if info, a, ok := s.evictedRun(id); ok {
		writeJSON(w, http.StatusOK, RunInfo{
			ID: id, Scenario: info.scenario, Format: info.format,
			State: RunDone, Bytes: len(a.body), Evicted: true,
		})
		return
	}
	notFound(w, "id", "no run record or cached artifact for this id")
}

// evictedRun finds what is left of a run the registry no longer holds: the
// config its id named, if still remembered, and that config's artifact, if
// the LRU or the disk store still has it.
func (s *Server) evictedRun(id string) (runKeyInfo, artifact, bool) {
	info, ok := s.runs.keyFor(id)
	if !ok {
		return info, artifact{}, false
	}
	a, src := s.lookupLocal(info.key)
	return info, a, src != ""
}

// handleRunEvents is GET /v1/runs/{id}/events: the SSE live-attach stream.
// Replay starts at log index 0 regardless of when the client attaches;
// the run's determinism makes the replay exact. The stream ends after
// the run's terminal `done` event, on client disconnect, or — when the
// server drains — after an explicit connection-level `drain` event (the
// drain event is about this connection, not the run, so it is never part
// of the replayable log).
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	run := s.runs.get(id)
	if run == nil {
		// Evicted but materialized: resurrect a replayable finished record.
		if info, a, ok := s.evictedRun(id); ok {
			run = s.runs.cached(info.key, info.scenario, info.format, a.body)
		}
	}
	if run == nil {
		notFound(w, "id", "no run record or cached artifact for this id")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			apiError{Error: "streaming unsupported"}, 0)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	noStore(w)
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	run.addWatcher()
	defer run.removeWatcher()
	access(r).setScenario(run.scenario)

	next := 0
	for {
		evs, notify, finished := run.wait(next)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Name, ev.Data)
		}
		next += len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if finished {
			// The log never grows past the done event; everything is sent.
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			fmt.Fprintf(w, "event: drain\ndata: {\"draining\":true}\n\n")
			fl.Flush()
			return
		}
	}
}
