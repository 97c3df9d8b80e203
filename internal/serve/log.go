package serve

// log.go is the structured request log: one logfmt line per request,
// written to Options.AccessLog (nil disables the whole path — the
// middleware is only installed when a sink exists, so the default server
// pays nothing). Handlers annotate the in-flight record through the
// request context; the middleware owns the line format and the sink.

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// accessRecord collects what the handler learns about a request beyond
// what the middleware can see: where the job's identity came from, the
// resolved scenario, the cache disposition, and how long the job sat
// queued before executing.
type accessRecord struct {
	parse     string // memo | full
	scenario  string
	cache     string // hit | miss | shared
	queueWait time.Duration
}

type accessKey struct{}

// access returns the request's annotation record, or nil when logging is
// disabled; the setters below accept nil, which keeps handler code
// branch-free without request goroutines writing to anything shared.
func access(r *http.Request) *accessRecord {
	rec, _ := r.Context().Value(accessKey{}).(*accessRecord)
	return rec
}

func (a *accessRecord) setParse(how string) {
	if a != nil {
		a.parse = how
	}
}

func (a *accessRecord) setScenario(name string) {
	if a != nil {
		a.scenario = name
	}
}

func (a *accessRecord) setCache(src string) {
	if a != nil {
		a.cache = src
	}
}

func (a *accessRecord) setQueueWait(d time.Duration) {
	if a != nil {
		a.queueWait = d
	}
}

// statusWriter captures the response status for the log line. It
// forwards Flush so SSE streaming works identically with and without
// logging installed.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// withAccessLog wraps next with the request logger. One line per
// completed request:
//
//	method=POST path=/v1/run status=200 parse=memo scenario=micro cache=hit queue_wait=0s latency=1.2ms
//
// parse/scenario/cache/queue_wait appear only when the handler resolved them.
func (s *Server) withAccessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &accessRecord{}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), accessKey{}, rec)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		line := fmt.Sprintf("method=%s path=%s status=%d", r.Method, r.URL.Path, status)
		if rec.parse != "" {
			line += " parse=" + rec.parse
		}
		if rec.scenario != "" {
			line += " scenario=" + rec.scenario
		}
		if rec.cache != "" {
			line += " cache=" + rec.cache
		}
		if rec.queueWait > 0 {
			line += fmt.Sprintf(" queue_wait=%s", rec.queueWait.Round(time.Microsecond))
		}
		line += fmt.Sprintf(" latency=%s", time.Since(t0).Round(time.Microsecond))
		s.logMu.Lock()
		fmt.Fprintln(s.opts.AccessLog, line)
		s.logMu.Unlock()
	})
}
