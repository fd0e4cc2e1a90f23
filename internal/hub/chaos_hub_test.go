package hub

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// These are the acceptance scenarios for the durable, self-healing hub:
// every run is pinned to a fixed fault-plan seed, so the exact attempt
// sequence — not just the outcome — is reproducible under -race.

// TestChaosCrashMidJournalRecoversByteIdentical: a hub serving a
// durable store crashes with a torn record at the journal tail. The
// reopened store must be byte-identical to the acknowledged state, the
// torn bytes must be truncated away, and every acknowledged image must
// still pull clean through a fresh server.
func TestChaosCrashMidJournalRecoversByteIdentical(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store).Handler())
	c := NewClientWithOptions(ts.URL, chaosOptions(3))

	digests := map[string]string{}
	for _, n := range []string{"alpha", "beta", "gamma"} {
		d, err := c.Push("chaos", testImage(n, "v1", n+"-payload"))
		if err != nil {
			t.Fatalf("push %s: %v", n, err)
		}
		digests[n] = d
	}
	ts.Close()
	want := dumpStore(store)

	// Crash: the process dies while appending a fourth record, leaving a
	// plausible length/CRC header and half a payload at the tail.
	crashDir := copyStateDir(t, dir, 1<<30)
	torn := []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, '{', '"', 'S', 'e'}
	f, err := os.OpenFile(filepath.Join(crashDir, walFileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, report, err := OpenDurable(crashDir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer recovered.Close()
	if report.TornBytes != int64(len(torn)) {
		t.Errorf("report.TornBytes = %d, want %d", report.TornBytes, len(torn))
	}
	if got := dumpStore(recovered); got != want {
		t.Errorf("recovered state differs from acknowledged state:\n--- want\n%s--- got\n%s", want, got)
	}

	ts2 := httptest.NewServer(NewServer(recovered).Handler())
	defer ts2.Close()
	c2 := NewClientWithOptions(ts2.URL, chaosOptions(3))
	for n, d := range digests {
		img, got, err := c2.Pull("chaos", n, "v1", d)
		if err != nil {
			t.Errorf("pull %s after recovery: %v", n, err)
			continue
		}
		if got != d || img == nil {
			t.Errorf("pull %s digest = %s, want %s", n, got, d)
		}
	}
}

// TestChaosTruncateMidChunkResumeIsDeterministic: a fault plan truncates
// the first two layer GETs mid-body. The client must resume from the last
// verified chunk boundary — and because the plan is seeded, two
// independent runs must produce identical attempt logs.
func TestChaosTruncateMidChunkResumeIsDeterministic(t *testing.T) {
	payload := strings.Repeat("resumable chunked payload ", 400) // ~10 KB, many 1 KiB chunks
	run := func() []string {
		store := NewStore()
		img := testImage("pepa", "latest", payload)
		digest, err := store.Put("chaos", "pepa", "latest", mustBlob(t, img))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store)
		srv.ChunkSize = 1024
		srv.EnableFaults(faultinject.NewPlan(33,
			faultinject.Rule{Match: "GET /v1/_layers/", Kind: faultinject.KindTruncate, First: 2},
		))
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		c := NewClientWithOptions(ts.URL, chaosOptions(5))
		_, got, err := c.Pull("chaos", "pepa", "latest", digest)
		if err != nil {
			t.Fatalf("pull never converged: %v", err)
		}
		if got != digest {
			t.Fatalf("digest = %s, want %s", got, digest)
		}
		return c.AttemptLog()
	}

	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("attempt logs diverge across identical seeds:\n--- run 1\n%s\n--- run 2\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
	log := strings.Join(first, "\n")
	if !strings.Contains(log, "truncated response (transient)") {
		t.Errorf("log missing truncation classification:\n%s", log)
	}
	if !strings.Contains(log, "resuming from verified offset") {
		t.Errorf("log missing chunk resume:\n%s", log)
	}
}

// TestChaosBitRotQuarantineAndRepair: flipping one stored bit must
// quarantine exactly that entry's layer; pulling it fails fast (410 is
// deterministic — one attempt, no retries), siblings keep serving, and
// a re-push repairs the entry in place.
func TestChaosBitRotQuarantineAndRepair(t *testing.T) {
	store := NewStore()
	digests := map[string]string{}
	for _, n := range []string{"alpha", "beta", "gamma"} {
		d, err := store.Put("chaos", n, "v1", mustBlob(t, testImage(n, "v1", n+"-payload")))
		if err != nil {
			t.Fatal(err)
		}
		digests[n] = d
	}
	rotted := rot(t, store, "chaos", "beta", "v1")

	report := store.ScrubOnce(nil)
	if report.Corrupt != 1 || len(report.Quarantined) != 1 || report.Quarantined[0] != rotted {
		t.Fatalf("scrub report = %+v, want exactly chaos/beta:v1's layer %s quarantined", report, rotted)
	}

	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, chaosOptions(3))

	_, _, err := c.Pull("chaos", "beta", "v1", digests["beta"])
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("pull of quarantined entry: err = %v, want ErrQuarantined", err)
	}
	if got := c.AttemptsMatching("quarantined content (deterministic; giving up)"); len(got) != 1 {
		t.Errorf("quarantine give-up lines = %d, want exactly 1 (no retries):\n%s",
			len(got), strings.Join(c.AttemptLog(), "\n"))
	}
	if attempts := c.AttemptsMatching("pull chaos/beta:v1 attempt"); len(attempts) != 1 {
		t.Errorf("pull attempts = %d, want 1 for a deterministic 410", len(attempts))
	}

	for _, n := range []string{"alpha", "gamma"} {
		if _, d, err := c.Pull("chaos", n, "v1", digests[n]); err != nil || d != digests[n] {
			t.Errorf("healthy sibling %s: digest=%s err=%v", n, d, err)
		}
	}

	// Repair: pushing the original image again clears the quarantine.
	if _, err := c.Push("chaos", testImage("beta", "v1", "beta-payload")); err != nil {
		t.Fatalf("repair push: %v", err)
	}
	if _, ok := store.QuarantineReason("chaos", "beta", "v1"); ok {
		t.Error("quarantine not cleared by repair push")
	}
	if _, d, err := c.Pull("chaos", "beta", "v1", digests["beta"]); err != nil || d != digests["beta"] {
		t.Errorf("pull after repair: digest=%s err=%v", d, err)
	}
}
