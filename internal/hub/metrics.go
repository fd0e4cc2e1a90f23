package hub

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file is the server-side observability layer: a middleware that
// counts requests and measures latency per endpoint class, plus the
// sidecar mux that serves the Prometheus text exposition page and
// (optionally) net/http/pprof. See docs/OBSERVABILITY.md.

// EnableMetrics wraps the server's current handler with per-endpoint
// request counters and latency histograms recorded into reg. Call it
// after EnableFaults so injected faults are observed too; must be called
// before Listen/Handler use.
func (s *Server) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obs = reg
	next := s.handler
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		ep := endpointClass(r)
		reg.Inc("hub_server_requests_total",
			obs.L("endpoint", ep), obs.L("code", strconv.Itoa(sw.code)))
		reg.ObserveDuration("hub_server_request_seconds", time.Since(start),
			obs.L("endpoint", ep))
	})
}

// MetricsHandler returns the observability sidecar handler: GET /metrics
// in the Prometheus text format, plus the /debug/pprof endpoints when
// withPprof is set. Serve it on a separate address (schub -metrics-addr)
// so scrapes and profiles never contend with registry traffic.
func (s *Server) MetricsHandler(withPprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obs.WritePrometheus(w)
	})
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// endpointClass maps a request to a low-cardinality endpoint label:
// collection, container, and tag names are collapsed to placeholders so
// the metric space stays bounded no matter how many images exist.
func endpointClass(r *http.Request) string {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		return r.Method + " /healthz"
	case strings.HasPrefix(path, "/v1/"):
		parts := strings.Split(strings.Trim(strings.TrimPrefix(path, "/v1/"), "/"), "/")
		switch {
		case parts[0] == "_layers" || parts[0] == "_cluster":
			return r.Method + " /v1/" + parts[0]
		case len(parts) == 1 && parts[0] == "":
			return r.Method + " /v1/"
		case len(parts) == 1:
			return r.Method + " /v1/{collection}"
		case len(parts) == 3:
			return r.Method + " /v1/{collection}/{container}/{tag}"
		case len(parts) == 4 && parts[3] == "manifest":
			return r.Method + " /v1/{collection}/{container}/{tag}/manifest"
		}
	}
	return r.Method + " other"
}
