// Package hub implements the container registry of the paper's
// distribution model (the Singularity-Hub stand-in): an HTTP server
// organizing built images into collections with tags and content digests,
// plus a client with digest-verified pull — reproducing Fig 6's
// "collection page + clone of each container" workflow. Layers are the
// only unit of storage and transfer: the store keeps refcounted,
// content-addressed layers and one manifest per tag (store.go), and a
// push or pull moves a manifest plus just the layers the other side
// lacks (layers.go, pull.go).
//
// The client is resilient by construction: every operation runs through
// a retry loop with exponential backoff, deterministic seeded jitter,
// and a circuit breaker (see resilience.go and docs/RESILIENCE.md);
// response sizes are capped; and corrupt transfers are detected by
// digest and re-pulled once. The server can be wrapped with a
// faultinject.Plan to chaos-test all of the above deterministically.
package hub

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Server wraps a Store with the HTTP API.
type Server struct {
	Store *Store
	// PeerName is this server's stable cluster peer name, reported by
	// GET /v1/_cluster/status (empty for a standalone hub).
	PeerName string
	// MaxUploadBytes caps PUT/POST request bodies (default 64 MiB);
	// oversized uploads are rejected with 413.
	MaxUploadBytes int64
	// ChunkSize is the digest-framing granularity for manifest and layer
	// GETs (default 64 KiB): responses advertise a per-chunk SHA-256 list
	// so clients can verify and resume partial transfers (see stream.go).
	ChunkSize int
	mux       *http.ServeMux
	handler   http.Handler
	ln        net.Listener
	srv       *http.Server
	builder   Builder // set by EnableAutoBuild
	// obs is the optional server metrics registry (EnableMetrics).
	obs *obs.Registry
	// inflight counts requests currently being served; Shutdown reports
	// it as the drain backlog and the gauge hub_server_inflight_requests
	// tracks it when metrics are enabled.
	inflight atomic.Int64
	// chunkMu guards chunkCache, the per-layer chunk list memo
	// (content-addressed, so entries never go stale).
	chunkMu    sync.Mutex
	chunkCache map[string][]string
	// scrubber is the optional background integrity scrubber.
	scrubber *Scrubber
}

// NewServer creates a server over the store.
func NewServer(store *Store) *Server {
	s := &Server{
		Store: store, MaxUploadBytes: 64 << 20, ChunkSize: DefaultChunkSize,
		mux: http.NewServeMux(), chunkCache: map[string][]string{},
	}
	s.handler = s.mux
	s.mux.HandleFunc("/v1/", s.handle)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// EnableFaults wraps the server's handler with a deterministic fault
// plan (chaos testing). The plan is consulted on behalf of the server's
// PeerName, so a spec with %peer clauses can crash exactly this member
// of a cluster sharing one spec; set PeerName before calling. Must be
// called before Listen/Handler use.
func (s *Server) EnableFaults(plan *faultinject.Plan) {
	s.handler = plan.MiddlewareFor(s.PeerName, s.mux)
}

// Handler returns the HTTP handler (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.track(s.handler) }

// track wraps a handler with in-flight request accounting. The counter
// is shared across wrappers, so Handler and Listen agree on the count.
func (s *Server) track(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.obs.Set("hub_server_inflight_requests", float64(s.inflight.Add(1)))
		defer func() {
			s.obs.Set("hub_server_inflight_requests", float64(s.inflight.Add(-1)))
		}()
		inner.ServeHTTP(w, r)
	})
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.track(s.handler)}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown stops the server gracefully: the listener closes immediately
// (no new connections), in-flight requests get until ctx expires to
// finish, and only then are the stragglers aborted. The outcome is
// recorded in hub_server_shutdowns_total{outcome="drained"|"aborted"};
// an aborted drain returns ctx's error after force-closing.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.scrubber != nil {
		s.scrubber.Stop()
		s.scrubber = nil
	}
	if s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		s.obs.Inc("hub_server_shutdowns_total", obs.L("outcome", "aborted"))
		s.srv.Close()
		return err
	}
	s.obs.Inc("hub_server_shutdowns_total", obs.L("outcome", "drained"))
	return nil
}

// Close stops the server abortively, cutting in-flight requests. Prefer
// Shutdown; Close remains as the immediate-stop fallback.
func (s *Server) Close() error {
	if s.scrubber != nil {
		s.scrubber.Stop()
		s.scrubber = nil
	}
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// handle routes /v1/ requests:
//
//	GET    /v1/                              collections
//	GET    /v1/{coll}                        a collection's entries
//	DELETE /v1/{coll}/{name}/{tag}           remove a tag
//	GET    /v1/{coll}/{name}/{tag}/manifest  a tag's manifest (layers.go)
//	PUT    /v1/{coll}/{name}/{tag}/manifest  commit a manifest
//	       /v1/_layers/...                   layer transfer (layers.go)
//	       /v1/_cluster/...                  replica state (hints.go)
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(strings.TrimPrefix(r.URL.Path, "/v1/"), "/"), "/")
	switch {
	case len(parts) == 2 && parts[0] == "_layers" && parts[1] == "missing":
		s.handleLayerMissing(w, r)
	case len(parts) == 2 && parts[0] == "_layers":
		s.handleLayer(w, r, parts[1])
	case len(parts) >= 2 && parts[0] == "_cluster":
		s.handleCluster(w, r, parts)
	case len(parts) == 4 && parts[3] == "manifest":
		s.handleManifest(w, r, parts[0], parts[1], parts[2])
	case len(parts) == 1 && r.Method != http.MethodGet:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	case len(parts) == 1 && parts[0] == "":
		writeJSON(w, s.Store.Collections())
	case len(parts) == 1:
		entries := s.Store.List(parts[0])
		if len(entries) == 0 {
			http.Error(w, "collection not found", http.StatusNotFound)
			return
		}
		writeJSON(w, entries)
	case len(parts) == 3 && r.Method == http.MethodDelete:
		existed, err := s.Store.Delete(parts[0], parts[1], parts[2])
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !existed {
			http.Error(w, "image not found", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]string{"deleted": key(parts[0], parts[1], parts[2])})
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// readBody reads a size-capped request body, writing 413 (too large) or
// 400 (read failure) itself when it fails.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	blob, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBytes), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return nil, err
	}
	return blob, nil
}

// writeJSON marshals v up front so encode failures become a clean 500
// instead of a silently truncated 200, and Content-Length is exact.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// Client talks to a hub server. The zero value is not usable; construct
// with NewClient or NewClientWithOptions. All operations retry
// transient failures with backoff and run through a circuit breaker.
type Client struct {
	BaseURL string // e.g. "http://127.0.0.1:4321"
	HTTP    *http.Client
	// Retry tunes the retry loop (zero fields use defaults).
	Retry RetryPolicy
	// MaxResponseBytes caps how much of any response body is read
	// (default 64 MiB).
	MaxResponseBytes int64

	// breakers holds one circuit breaker per destination host, created
	// lazily as requests are routed (see breakerFor): a failing peer
	// trips only its own breaker, so a client whose BaseURL moves
	// between hub replicas never rejects requests to healthy ones.
	bmu            sync.Mutex
	breakers       map[string]*Breaker
	brThreshold    int
	brCooldown     int
	onBrTransition func(from, to BreakerState)
	// throttleFailover makes 429+Retry-After responses return
	// immediately (as *HTTPError) instead of sleeping out the hint, so a
	// clustered caller can try the next replica at once. Single-hub
	// clients leave it off and keep the uncounted-pass behavior.
	throttleFailover bool
	// layerCache holds layers pulled or pushed by this client so layered
	// transfers skip layers already on hand (see layers.go).
	layerCache *LayerCache
	jmu        sync.Mutex
	jitter   *rng.Source
	logMu    sync.Mutex
	attempts []string
	sleep    func(time.Duration)
	// obs is the optional metrics registry; nil (the default) disables
	// instrumentation at zero cost and cannot perturb attempt logs.
	obs *obs.Registry
}

// ClientOptions tunes NewClientWithOptions. Zero fields use defaults.
type ClientOptions struct {
	Timeout          time.Duration // HTTP client timeout (default 30s)
	Retry            RetryPolicy
	MaxResponseBytes int64
	BreakerThreshold int    // consecutive failures to trip (default 5)
	BreakerCooldown  int    // rejections before a half-open probe (default 3)
	JitterSeed       uint64 // backoff jitter seed (default 1)
	// Transport overrides the HTTP transport (e.g. a faultinject plan's
	// Transport for chaos tests).
	Transport http.RoundTripper
	// Sleep overrides the inter-retry sleep (tests use a no-op).
	Sleep func(time.Duration)
	// Obs receives client metrics (attempts, retries, backoff, breaker
	// transitions, bytes moved). Nil disables instrumentation.
	Obs *obs.Registry
	// LayerCache shares a layer cache between clients (nil creates a
	// fresh per-client cache).
	LayerCache *LayerCache
	// ThrottleFailover makes admission-control pushback (429 +
	// Retry-After) surface immediately as *HTTPError instead of being
	// slept out, so a clustered caller can fail over to another replica
	// at once (see internal/hub/cluster). Leave unset for single-hub
	// clients: they keep the capped uncounted-pass backoff.
	ThrottleFailover bool
	// PeerName labels this client's breaker metrics with {peer=...} —
	// stable cluster peer names, never addresses. Empty emits the
	// legacy unlabeled series.
	PeerName string
}

// NewClient creates a client for the given base URL with default
// resilience settings: 30s request timeout, 4 attempts with exponential
// backoff, 64 MiB response cap, breaker tripping after 5 consecutive
// failures.
func NewClient(baseURL string) *Client {
	return NewClientWithOptions(baseURL, ClientOptions{})
}

// NewClientWithOptions creates a client with explicit resilience knobs.
func NewClientWithOptions(baseURL string, opts ClientOptions) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.MaxResponseBytes <= 0 {
		opts.MaxResponseBytes = 64 << 20
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.LayerCache == nil {
		opts.LayerCache = NewLayerCache()
	}
	c := &Client{
		BaseURL:          strings.TrimRight(baseURL, "/"),
		HTTP:             &http.Client{Timeout: opts.Timeout, Transport: opts.Transport},
		Retry:            opts.Retry,
		MaxResponseBytes: opts.MaxResponseBytes,
		breakers:         map[string]*Breaker{},
		brThreshold:      opts.BreakerThreshold,
		brCooldown:       opts.BreakerCooldown,
		throttleFailover: opts.ThrottleFailover,
		layerCache:       opts.LayerCache,
		jitter:           newJitter(opts.JitterSeed),
		sleep:            opts.Sleep,
		obs:              opts.Obs,
	}
	if reg := opts.Obs; reg != nil {
		// The transition hook is shared by every per-host breaker. With a
		// PeerName the series carries a stable {peer} label; without one
		// it is the legacy unlabeled gauge (single-host clients only ever
		// create one breaker, so the aggregate is exact).
		var labels []obs.Label
		if opts.PeerName != "" {
			labels = []obs.Label{obs.L("peer", opts.PeerName)}
		}
		reg.Set("hub_breaker_state", float64(BreakerClosed), labels...)
		c.onBrTransition = func(from, to BreakerState) {
			reg.Inc("hub_breaker_transitions_total",
				append([]obs.Label{obs.L("from", from.String()), obs.L("to", to.String())}, labels...)...)
			reg.Set("hub_breaker_state", float64(to), labels...)
		}
	}
	return c
}

// List fetches the entries of a collection.
func (c *Client) List(coll string) ([]Entry, error) {
	var entries []Entry
	err := c.do("list "+coll, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/%s", c.BaseURL, coll), nil)
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &entries); err != nil {
			return fmt.Errorf("%w: decoding list response: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Collections fetches the collection names.
func (c *Client) Collections() ([]string, error) {
	var out []string
	err := c.do("collections", func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.BaseURL+"/v1/", nil)
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding collections response: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
