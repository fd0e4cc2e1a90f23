package main

import (
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/hub"
	"repro/internal/image"
	"repro/internal/vfs"
)

// freePort reserves an ephemeral port and releases it for serve to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestServeDurableLifecycle drives the full serve path: open a durable
// state directory, serve it with scrubbing and admission control on,
// shut down gracefully on SIGINT, and verify the drain flushed the
// journal (the next open replays zero records).
func TestServeDurableLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Seed the state directory with one image, leaving a journal tail
	// behind (no Close → no final compaction).
	store, _, err := hub.OpenDurable(dir, hub.DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.New()
	fs.WriteFile("/payload", []byte("serve-lifecycle"), 0o644)
	img := &image.Image{
		Meta: image.Metadata{Name: "pepa", Tag: "latest", BaseRef: "centos:7.4", BuildHost: "centos-7.4-proliant"},
		FS:   fs,
	}
	blob, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("cc", "pepa", "latest", blob); err != nil {
		t.Fatal(err)
	}
	// Abandon the store without Close — a crash leaves the journal tail
	// for serve to replay.

	// Absorb any SIGINT that could arrive before serve registers its own
	// handler, so a mistimed signal cannot kill the test binary.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, os.Interrupt)
	defer signal.Stop(guard)

	addr := freePort(t)
	go func() {
		// Wait for serve to bind, give it a beat to reach the signal
		// wait, then deliver exactly one SIGINT.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if conn, err := net.Dial("tcp", addr); err == nil {
				conn.Close()
				time.Sleep(200 * time.Millisecond)
				syscall.Kill(os.Getpid(), syscall.SIGINT)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	out, err := runCmd(t, "serve",
		"-addr", addr,
		"-state", dir,
		"-scrub-interval", "20ms",
		"-max-inflight", "8",
		"-rate-limit", "1000",
		"-drain", "5s",
	)
	if err != nil {
		t.Fatalf("serve returned error: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"registry state: " + dir,
		"1 journal records replayed",
		"integrity scrubbing every ~20ms",
		"hub serving on",
		"shutting down: draining",
		"registry state saved to " + dir,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serve output missing %q:\n%s", want, out)
		}
	}

	// The drain compacted: reopening replays nothing and still has the
	// pushed entry.
	reopened, report, err := hub.OpenDurable(dir, hub.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if report.JournalRecords != 0 {
		t.Errorf("journal not flushed by drain: %d records replayed", report.JournalRecords)
	}
	if report.SnapshotEntries != 1 {
		t.Errorf("snapshot entries = %d, want 1", report.SnapshotEntries)
	}
	if entries := reopened.List("cc"); len(entries) != 1 || entries[0].Container != "pepa" || entries[0].Tag != "latest" {
		t.Errorf("entry lost across serve lifecycle: %+v", entries)
	}
}

// TestServeRejectsBadState: a -state path that is a regular file cannot
// be a state directory and must fail before the server binds.
func TestServeRejectsBadState(t *testing.T) {
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "serve", "-addr", "127.0.0.1:0", "-state", f); err == nil {
		t.Error("serve accepted a regular file as -state")
	}
}
