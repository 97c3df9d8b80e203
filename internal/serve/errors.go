package serve

// errors.go is the wire shape of failure: every job-API handler answers
// errors with one structured JSON object
//
//	{"error": <message>, "field": <locator>, "hint": <how to fix>}
//
// plus the correct status code, so clients branch on machine-readable
// fields instead of scraping prose. The field locator uses the request
// body's own path syntax (`params.iters`, `phases[1].fault.events[0]`),
// pointing at exactly the input to change. Validation layers return
// typed errors (bench.ParamError, scenario.SpecError,
// scenario.ErrTrailingData) and the adapter here maps them; untyped
// errors carry a message only.
//
// /healthz stays plain text: it is a load-balancer probe, not part of
// the JSON API.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/bench"
	"repro/internal/scenario"
)

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
	Hint  string `json:"hint,omitempty"`
}

// writeError answers with a structured error. retryAfter, when nonzero,
// adds the Retry-After header (overload and drain responses).
func writeError(w http.ResponseWriter, status int, e apiError, retryAfter int) {
	noStore(w)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(e)
}

// errorFrom maps a Go error onto the wire envelope, extracting the field
// locator and hint from the typed validation errors.
func errorFrom(err error) apiError {
	var pe *bench.ParamError
	if errors.As(err, &pe) {
		return apiError{Error: err.Error(), Field: "params." + pe.Param, Hint: pe.Hint}
	}
	var se *scenario.SpecError
	if errors.As(err, &se) {
		return apiError{Error: err.Error(), Field: "compose." + se.Field, Hint: se.Hint}
	}
	if errors.Is(err, scenario.ErrTrailingData) {
		return apiError{Error: err.Error(), Field: "body", Hint: "send exactly one JSON value"}
	}
	return apiError{Error: err.Error()}
}

// badRequest answers a 400 from a parse/validation error.
func badRequest(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, errorFrom(err), 0)
}

// tooLarge answers a body past maxBodyBytes.
func tooLarge(w http.ResponseWriter) {
	writeError(w, http.StatusRequestEntityTooLarge,
		apiError{Error: "request body too large", Field: "body", Hint: "at most 1 MiB"}, 0)
}

// unavailable answers the draining rejection.
func unavailable(w http.ResponseWriter) {
	writeError(w, http.StatusServiceUnavailable,
		apiError{Error: "draining", Hint: "the server is shutting down; retry against a healthy instance"},
		retryAfterSeconds)
}

// jobError answers a failed jobResult (non-200 execution outcome).
func jobError(w http.ResponseWriter, res *jobResult) {
	writeError(w, res.status, apiError{Error: res.errMsg}, res.retryAfter)
}

// notFound answers a 404 with the offending locator.
func notFound(w http.ResponseWriter, field, hint string) {
	writeError(w, http.StatusNotFound, apiError{Error: "not found", Field: field, Hint: hint}, 0)
}
