package core

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/par"
)

// matrixClientOptions: fast deterministic retries, breaker effectively
// disabled so concurrent per-host pulls cannot interfere across cells.
func matrixClientOptions() hub.ClientOptions {
	return hub.ClientOptions{
		Retry:            hub.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		BreakerThreshold: 1 << 20,
		Sleep:            func(time.Duration) {},
	}
}

// TestValidationMatrixDegradesGracefully injects persistent 500s into
// one tool's pull path: that tool's cells fail classified transient
// with attempt logs, every other cell completes, and FormatMatrix
// renders a partial report.
func TestValidationMatrixDegradesGracefully(t *testing.T) {
	f := New()
	srv := hub.NewServer(hub.NewStore())
	srv.EnableFaults(faultinject.NewPlan(1, faultinject.Rule{
		Match: "GET /v1/pepa-containers/gpa/", Kind: faultinject.KindStatus, Status: 500, First: 1 << 20,
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := hub.NewClientWithOptions(ts.URL, matrixClientOptions())

	entries, err := f.ValidationMatrix(client)
	if err != nil {
		t.Fatalf("matrix aborted instead of degrading: %v", err)
	}
	hosts := len(hostenv.Names())
	if len(entries) != hosts*len(Tools()) {
		t.Fatalf("got %d entries, want %d", len(entries), hosts*len(Tools()))
	}
	var failed, ok int
	for _, e := range entries {
		if e.Failed() {
			failed++
			if e.Tool != ToolGPA {
				t.Errorf("unexpected failure for %s on %s: %s", e.Tool, e.Host, e.Err)
			}
			if e.FailureClass != FailureTransient {
				t.Errorf("gpa cell on %s classified %q, want transient", e.Host, e.FailureClass)
			}
			if len(e.Attempts) == 0 {
				t.Errorf("gpa cell on %s has no attempt log", e.Host)
			}
			continue
		}
		ok++
		if !e.DigestMatch || !e.OutputMatch {
			t.Errorf("healthy cell %s/%s: digest=%v output=%v", e.Host, e.Tool, e.DigestMatch, e.OutputMatch)
		}
	}
	if failed != hosts || ok != 2*hosts {
		t.Errorf("failed=%d ok=%d, want %d and %d", failed, ok, hosts, 2*hosts)
	}

	report := FormatMatrix(entries)
	if !strings.Contains(report, "!! transient failure:") {
		t.Errorf("report missing classification:\n%s", report)
	}
	if !strings.Contains(report, "partial report:") {
		t.Errorf("report missing partial-report summary:\n%s", report)
	}
}

// panicTransport panics on pulls of one container — the pathological
// client bug the matrix must survive.
type panicTransport struct{ needle string }

func (p *panicTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.Contains(r.URL.Path, p.needle) {
		panic("transport exploded")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestValidationMatrixSurvivesPanic: a panicking pull yields a
// deterministic-classified cell instead of crashing or hanging the
// matrix run (the ISSUE acceptance scenario).
func TestValidationMatrixSurvivesPanic(t *testing.T) {
	f := New()
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	opts := matrixClientOptions()
	opts.Transport = &panicTransport{needle: "/biopepa/"}
	client := hub.NewClientWithOptions(ts.URL, opts)

	entries, err := f.ValidationMatrix(client)
	if err != nil {
		t.Fatalf("matrix aborted: %v", err)
	}
	var panicked int
	for _, e := range entries {
		if e.Tool == ToolBioPEPA {
			if !e.Failed() || !strings.Contains(e.Err, "panic: transport exploded") {
				t.Errorf("biopepa cell on %s: Err = %q, want recorded panic", e.Host, e.Err)
			}
			if e.FailureClass != FailureDeterministic {
				t.Errorf("panic classified %q, want deterministic", e.FailureClass)
			}
			panicked++
		} else if e.Failed() {
			t.Errorf("collateral failure for %s on %s: %s", e.Tool, e.Host, e.Err)
		}
	}
	if panicked != len(hostenv.Names()) {
		t.Errorf("panicked cells = %d, want one per host", panicked)
	}
}

// TestPushAllPartialFailure: a missing build fails its own tool only;
// the partial digest map and an aggregated *par.MultiError come back.
func TestPushAllPartialFailure(t *testing.T) {
	f := New()
	builds, err := f.BuildAll(builderHost(t))
	if err != nil {
		t.Fatal(err)
	}
	delete(builds, ToolGPA)
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	digests, _, err := f.pushAll(context.Background(), hub.NewClient(ts.URL), builds)
	var m *par.MultiError
	if !errors.As(err, &m) || len(m.Errs) != 1 {
		t.Fatalf("err = %v, want MultiError with 1 failure", err)
	}
	if !strings.Contains(m.Error(), "no build for gpa") {
		t.Errorf("err = %v", m)
	}
	if len(digests) != 2 || digests[ToolPEPA] == "" || digests[ToolBioPEPA] == "" {
		t.Errorf("partial digests = %v", digests)
	}
}

// TestFormatMatrixPartialRendering pins the failed-cell rendering
// (the happy-path format is pinned separately by the golden file).
func TestFormatMatrixPartialRendering(t *testing.T) {
	entries := []MatrixEntry{
		{Tool: ToolPEPA, Host: "centos-7.4", NativeInstallOK: true, DigestMatch: true, OutputMatch: true},
		{Tool: ToolGPA, Host: "ubuntu-16.04", Err: "core: pulling gpa: HTTP 500",
			FailureClass: FailureTransient, Attempts: []string{"pull c/gpa:latest attempt 1/2: HTTP 500 (transient)"}},
	}
	got := FormatMatrix(entries)
	want := "host\ttool\tnative-install\tdigest-ok\toutput-ok\n" +
		"centos-7.4\tpepa\tok\ttrue\ttrue\n" +
		"ubuntu-16.04\tgpa\tFAIL\tERR\tERR\n" +
		"    !! transient failure: core: pulling gpa: HTTP 500\n" +
		"       pull c/gpa:latest attempt 1/2: HTTP 500 (transient)\n" +
		"partial report: 1/2 cells failed\n"
	if got != want {
		t.Errorf("FormatMatrix:\n%q\nwant\n%q", got, want)
	}
}
