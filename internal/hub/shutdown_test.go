package hub

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// slowGate wraps the server handler so one request can be held in
// flight at a known point — the deterministic stand-in for a slow pull
// caught by a shutdown.
type slowGate struct {
	inner   http.Handler
	entered chan struct{} // closed-over signal: a request reached the gate
	release chan struct{} // the request proceeds when this closes
}

func (g *slowGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.entered <- struct{}{}
	<-g.release
	g.inner.ServeHTTP(w, r)
}

// TestShutdownDrainsSlowInflightPull pins the graceful path: a pull
// held in flight when Shutdown starts still completes with its full
// payload, and the shutdown is recorded as drained.
func TestShutdownDrainsSlowInflightPull(t *testing.T) {
	store := NewStore()
	img := testImage("pepa", "latest", "solver")
	if _, err := store.Put("c", "pepa", "latest", mustBlob(t, img)); err != nil {
		t.Fatal(err)
	}
	layer := layerized(t, img)[0]
	srv := NewServer(store)
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	gate := &slowGate{inner: srv.handler, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv.handler = gate
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type pullResult struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan pullResult, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/_layers/" + layer.Digest())
		if err != nil {
			got <- pullResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			got <- pullResult{err: err}
			return
		}
		got <- pullResult{status: resp.StatusCode, body: body}
	}()
	<-gate.entered // the pull is now in flight, parked at the gate

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the parked request. Give it a moment to
	// close the listener, then verify new connections are refused while
	// the old one survives.
	time.Sleep(20 * time.Millisecond)
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("new request accepted after Shutdown began")
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight pull finished", err)
	default:
	}
	close(gate.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-got
	if res.err != nil {
		t.Fatalf("in-flight pull failed: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight pull status = %d", res.status)
	}
	if string(res.body) != string(layer.Bytes()) {
		t.Error("in-flight pull returned a truncated or corrupt layer")
	}
	if n := reg.Counter("hub_server_shutdowns_total", obs.L("outcome", "drained")); n != 1 {
		t.Errorf("drained shutdowns = %v, want 1", n)
	}
	if n := reg.Counter("hub_server_shutdowns_total", obs.L("outcome", "aborted")); n != 0 {
		t.Errorf("aborted shutdowns = %v, want 0", n)
	}
}

// TestShutdownAbortsAfterDeadline pins the abortive fallback: a request
// that outlives the drain deadline is cut, Shutdown reports the
// context's error, and the outcome counts as aborted.
func TestShutdownAbortsAfterDeadline(t *testing.T) {
	srv := NewServer(NewStore())
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	gate := &slowGate{inner: srv.handler, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv.handler = gate
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		_, err := http.Get("http://" + addr + "/healthz")
		reqDone <- err
	}()
	<-gate.entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown drained despite a stuck request")
	}
	if ctx.Err() == nil {
		t.Fatalf("Shutdown returned %v before the drain deadline", err)
	}
	close(gate.release) // unblock the handler goroutine
	<-reqDone
	if n := reg.Counter("hub_server_shutdowns_total", obs.L("outcome", "aborted")); n != 1 {
		t.Errorf("aborted shutdowns = %v, want 1", n)
	}
}

// TestShutdownWithoutListen is a no-op, matching Close.
func TestShutdownWithoutListen(t *testing.T) {
	srv := NewServer(NewStore())
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown on unstarted server: %v", err)
	}
}

// TestSaveSurvivesTornWriteArtifacts pins the fsatomic write path: a
// stale tmp file from an interrupted earlier snapshot or layer write
// neither corrupts a later compaction nor leaks into the reopened store,
// and the index on disk is never observable half-written (the tmp is
// renamed into place).
func TestSaveSurvivesTornWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	// Simulate the debris of a crash mid-write: a torn index tmp and a
	// torn layer tmp.
	if err := os.WriteFile(filepath.Join(dir, indexFile+".tmp-123"), []byte(`{"tags":[{"collection":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.layer.tmp-9"), []byte("half a layer"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := openEmpty(t, dir)
	if _, err := store.Put("c", "pepa", "latest", mustBlob(t, testImage("pepa", "latest", "solver"))); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	back := openEmpty(t, dir)
	defer back.Close()
	if _, _, ok := storedImage(t, back, "c", "pepa", "latest"); !ok {
		t.Fatal("image lost")
	}
	// The writes leave no tmp files of their own behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") && e.Name() != indexFile+".tmp-123" && e.Name() != "deadbeef.layer.tmp-9" {
			t.Errorf("write leaked tmp file %s", e.Name())
		}
	}
}

// TestLoadRejectsTornIndex pins recovery semantics: a torn (truncated)
// index fails the open loudly instead of silently serving a partial
// catalogue.
func TestLoadRejectsTornIndex(t *testing.T) {
	dir := t.TempDir()
	store := openEmpty(t, dir)
	store.Put("c", "pepa", "latest", mustBlob(t, testImage("pepa", "latest", "solver")))
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(dir, DurableOptions{}); err == nil || !strings.Contains(err.Error(), "corrupt index") {
		t.Fatalf("open of torn index = %v, want corrupt-index error", err)
	}
	// Compacting the live store again repairs the directory.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	back, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	back.Close()
}
