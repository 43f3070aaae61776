package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// Debug HTTP surface. dlad mounts these on its -pprof server:
//
//	GET /debug/dla/metrics          -> MetricsSnapshot JSON
//	GET /debug/dla/trace/<session>  -> TraceView JSON (404 if unknown)
//	GET /debug/dla/trace/           -> stored session keys, one per line
//	GET /debug/dla/leaks            -> LedgerSnapshot JSON (per-querier ledgers)
//	GET /debug/dla/flight           -> FlightSnapshot JSON (?since=RFC3339)
//
// Each value is served once, as JSON, and the handlers serve only
// snapshot types, so the zero-plaintext guarantee of the recording
// schema carries through to the wire.

// MetricsHandler serves the default registry as JSON.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, M.Snapshot())
	})
}

// TraceHandler serves traces from the default tracer. It expects to be
// mounted under prefix (e.g. "/debug/dla/trace/"); the rest of the path
// is the session ID.
func TraceHandler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		session := strings.TrimPrefix(r.URL.Path, prefix)
		if session == "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, s := range T.Sessions() {
				w.Write([]byte(s + "\n")) //nolint:errcheck
			}
			return
		}
		view, ok := Snapshot(session)
		if !ok {
			http.Error(w, "telemetry: no trace for session "+session, http.StatusNotFound)
			return
		}
		writeJSON(w, view)
	})
}

// LeaksHandler serves the default leak ledger as JSON.
func LeaksHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, L.Snapshot())
	})
}

// FlightHandler serves the default flight recorder as JSON. An
// optional since query parameter (RFC 3339, fractional seconds
// allowed) restricts the snapshot to events recorded after it.
func FlightHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var since time.Time
		if s := r.URL.Query().Get("since"); s != "" {
			var err error
			if since, err = time.Parse(time.RFC3339Nano, s); err != nil {
				http.Error(w, "telemetry: bad since parameter (want RFC 3339)", http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, F.SnapshotSince(since))
	})
}

// Mount registers the /debug/dla/* endpoints on mux.
func Mount(mux *http.ServeMux) {
	mux.Handle("/debug/dla/metrics", MetricsHandler())
	mux.Handle("/debug/dla/trace/", TraceHandler("/debug/dla/trace/"))
	mux.Handle("/debug/dla/leaks", LeaksHandler())
	mux.Handle("/debug/dla/flight", FlightHandler())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}
