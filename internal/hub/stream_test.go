package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/image"
)

func TestChunkDigests(t *testing.T) {
	blob := []byte("0123456789abcdef0123")
	m := chunkDigests(blob, 8)
	if len(m) != 3 { // 8 + 8 + 4
		t.Fatalf("chunks = %d, want 3", len(m))
	}
	// The final short chunk hashes only its own bytes.
	if m[2] == m[0] || m[0] != chunkDigests(blob[:8], 8)[0] {
		t.Error("chunk digests not positional over the blob")
	}
	if got := chunkDigests(nil, 8); len(got) != 0 {
		t.Errorf("empty blob produced %d chunks", len(got))
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		h               string
		size            int
		start, end      int
		ok, satisfiable bool
	}{
		{"", 100, 0, 0, false, true},
		{"bytes=0-", 100, 0, 100, true, true},
		{"bytes=40-", 100, 40, 100, true, true},
		{"bytes=40-59", 100, 40, 60, true, true},
		{"bytes=40-5000", 100, 40, 100, true, true},
		{"bytes=100-", 100, 0, 0, true, false}, // past the end
		{"bytes=-20", 100, 0, 0, false, true},  // suffix range: serve full
		{"bytes=0-10,20-30", 100, 0, 0, false, true},
		{"items=0-", 100, 0, 0, false, true},
		{"bytes=abc-", 100, 0, 0, false, true},
		{"bytes=9-5", 100, 0, 0, false, true},
	}
	for _, tc := range cases {
		start, end, ok, sat := parseRange(tc.h, tc.size)
		if start != tc.start || end != tc.end || ok != tc.ok || sat != tc.satisfiable {
			t.Errorf("parseRange(%q, %d) = (%d, %d, %v, %v), want (%d, %d, %v, %v)",
				tc.h, tc.size, start, end, ok, sat, tc.start, tc.end, tc.ok, tc.satisfiable)
		}
	}
}

// TestServeBlobRange exercises the raw HTTP surface of a layer GET:
// chunk list headers on every response, 206 + Content-Range for ranged
// requests, 416 for unsatisfiable ones.
func TestServeBlobRange(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	srv.ChunkSize = 64
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	img := testImage("app", "v1", strings.Repeat("range-payload ", 40))
	if _, err := store.Put("c", "app", "v1", mustBlob(t, img)); err != nil {
		t.Fatal(err)
	}
	layer := layerized(t, img)[0]
	blob, digest := layer.Bytes(), layer.Digest()

	get := func(rangeHdr string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/_layers/"+digest, nil)
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	full := get("")
	if full.StatusCode != http.StatusOK {
		t.Fatalf("full GET = %d", full.StatusCode)
	}
	if got := full.Header.Get(headerDigest); got != digest {
		t.Errorf("digest header = %q, want %q", got, digest)
	}
	if got := full.Header.Get(headerChunkSize); got != "64" {
		t.Errorf("chunk size header = %q, want 64", got)
	}
	wantChunks := (len(blob) + 63) / 64
	if got := strings.Split(full.Header.Get(headerChunkList), ","); len(got) != wantChunks {
		t.Errorf("chunk list has %d digests, want %d", len(got), wantChunks)
	}
	if got := full.Header.Get("Accept-Ranges"); got != "bytes" {
		t.Errorf("Accept-Ranges = %q", got)
	}

	ranged := get("bytes=128-")
	if ranged.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged GET = %d, want 206", ranged.StatusCode)
	}
	wantCR := fmt.Sprintf("bytes 128-%d/%d", len(blob)-1, len(blob))
	if got := ranged.Header.Get("Content-Range"); got != wantCR {
		t.Errorf("Content-Range = %q, want %q", got, wantCR)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(ranged.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), blob[128:]) {
		t.Error("ranged body does not match blob suffix")
	}

	if resp := get(fmt.Sprintf("bytes=%d-", len(blob))); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("past-the-end range = %d, want 416", resp.StatusCode)
	}
}

// rangeRecordingServer wraps a hub handler, recording the Range header of
// every incoming request.
type rangeRecordingServer struct {
	mu     sync.Mutex
	ranges []string
}

func (rr *rangeRecordingServer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rr.mu.Lock()
		rr.ranges = append(rr.ranges, r.Header.Get("Range"))
		rr.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (rr *rangeRecordingServer) recorded() []string {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return append([]string(nil), rr.ranges...)
}

// TestPullResumesFromVerifiedChunk: a truncated first attempt leaves
// verified chunks behind; the retry must send a chunk-aligned Range
// request instead of re-pulling from byte zero.
func TestPullResumesFromVerifiedChunk(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	srv.ChunkSize = 1024
	srv.EnableFaults(faultinject.NewPlan(21,
		faultinject.Rule{Match: "GET /v1/_layers/", Kind: faultinject.KindTruncate, First: 1},
	))
	rec := &rangeRecordingServer{}
	ts := httptest.NewServer(rec.wrap(srv.Handler()))
	defer ts.Close()

	img := testImage("pepa", "latest", strings.Repeat("resumable-payload ", 400))
	digest, err := store.Put("chaos", "pepa", "latest", mustBlob(t, img))
	if err != nil {
		t.Fatal(err)
	}
	blob := layerized(t, img)[0].Bytes()

	c := NewClientWithOptions(ts.URL, chaosOptions(4))
	pulled, gotDigest, err := c.Pull("chaos", "pepa", "latest", digest)
	if err != nil {
		t.Fatalf("pull did not converge: %v", err)
	}
	if gotDigest != digest {
		t.Errorf("digest = %s, want %s", gotDigest, digest)
	}
	if data, err := pulled.FS.ReadFile("/payload"); err != nil || !strings.HasPrefix(string(data), "resumable-payload ") {
		t.Errorf("payload = %.30q, err %v", data, err)
	}

	ranges := rec.recorded()
	// The layer GETs close the request sequence: attempt 1 full
	// (truncated), attempt 2 resumed.
	var pullRanges []string
	for _, r := range ranges[len(ranges)-2:] {
		pullRanges = append(pullRanges, r)
	}
	if pullRanges[0] != "" {
		t.Errorf("first attempt sent Range %q, want none", pullRanges[0])
	}
	var off int
	if n, err := fmt.Sscanf(pullRanges[1], "bytes=%d-", &off); n != 1 || err != nil {
		t.Fatalf("second attempt Range = %q, want bytes=N-", pullRanges[1])
	}
	if off <= 0 || off%1024 != 0 {
		t.Errorf("resume offset %d not a positive chunk boundary", off)
	}
	if off >= len(blob) {
		t.Errorf("resume offset %d past blob end %d", off, len(blob))
	}
	log := strings.Join(c.AttemptsMatching("pulllayer "), "\n")
	if !strings.Contains(log, fmt.Sprintf("resuming from verified offset %d", off)) {
		t.Errorf("resume not logged:\n%s", log)
	}
	if !strings.Contains(log, "truncated response (transient)") {
		t.Errorf("truncation not classified transient:\n%s", log)
	}
}

// TestPullIncrementalCapAbort (satellite): a response of unbounded
// length must be aborted as soon as the cap is crossed, mid-stream — an
// endless body would otherwise hang the client forever.
func TestPullIncrementalCapAbort(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerDigest, "sha256:feedfeed")
		// Chunks larger than the cap: only the cap can end this body.
		w.Header().Set(headerChunkSize, strconv.Itoa(1<<20))
		w.Header().Set(headerChunkList, strings.Repeat("0", 64))
		fl, _ := w.(http.Flusher)
		chunk := bytes.Repeat([]byte("x"), 8<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			select {
			case <-r.Context().Done():
				return
			default:
			}
		}
	}))
	defer ts.Close()

	opts := chaosOptions(3)
	opts.MaxResponseBytes = 64 << 10
	c := NewClientWithOptions(ts.URL, opts)
	_, _, err := c.Pull("coll", "endless", "latest", "")
	if err == nil {
		t.Fatal("pull of an endless body succeeded")
	}
	if !strings.Contains(err.Error(), "65536-byte cap") {
		t.Errorf("err = %v, want response-cap error", err)
	}
	// The cap violation is deterministic: one attempt, no retries.
	log := c.AttemptsMatching("pull coll/endless:latest attempt")
	if len(log) != 1 || !strings.Contains(log[0], "deterministic; giving up") {
		t.Errorf("cap violation was retried:\n%s", strings.Join(log, "\n"))
	}
}

// TestPullRejectsUnframedResponse: a body served without chunk digests
// cannot be verified chunk by chunk, so the pull treats it as corrupt
// (re-pulled once) instead of trusting it.
func TestPullRejectsUnframedResponse(t *testing.T) {
	img := testImage("app", "v1", "unframed-payload")
	m, err := img.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerDigest, m.ImageDigest)
		w.Write(body)
	}))
	defer ts.Close()

	c := NewClientWithOptions(ts.URL, chaosOptions(4))
	if _, _, err := c.Pull("c", "app", "v1", m.ImageDigest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if log := c.AttemptsMatching("pull c/app:v1 attempt"); len(log) != 2 {
		t.Errorf("unframed pull made %d attempts, want 2:\n%s", len(log), strings.Join(log, "\n"))
	}
}

// TestPullToFileCrossProcessResume (tentpole acceptance): a pull that
// dies mid-layer leaves that layer's spool on disk; a brand-new client —
// as after a process restart — resumes the layer from the spooled
// verified offset instead of byte zero, then cleans the spool up.
func TestPullToFileCrossProcessResume(t *testing.T) {
	store := NewStore()
	img := testImage("pepa", "latest", strings.Repeat("spooled-payload ", 400))
	digest, err := store.Put("chaos", "pepa", "latest", mustBlob(t, img))
	if err != nil {
		t.Fatal(err)
	}
	layer := layerized(t, img)[0]
	blob := layer.Bytes()
	dest := filepath.Join(t.TempDir(), "pepa.scif")
	spool := dest + "." + strings.TrimPrefix(layer.Digest(), "sha256:")

	// Process 1: every layer GET is truncated and the attempt budget is
	// 1, so the pull fails with partial verified progress spooled.
	srv1 := NewServer(store)
	srv1.ChunkSize = 512
	srv1.EnableFaults(faultinject.NewPlan(31,
		faultinject.Rule{Match: "GET /v1/_layers/", Kind: faultinject.KindTruncate, First: 100},
	))
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := NewClientWithOptions(ts1.URL, chaosOptions(1))
	if _, err := c1.PullToFile("chaos", "pepa", "latest", digest, dest); err == nil {
		t.Fatal("pull against an always-truncating server succeeded")
	}
	ts1.Close()
	spooled, err := os.ReadFile(spool + ".partial")
	if err != nil {
		t.Fatalf("no spool left behind: %v", err)
	}
	if len(spooled) == 0 || len(spooled)%512 != 0 || len(spooled) >= len(blob) {
		t.Fatalf("spool holds %d bytes, want a positive chunk-aligned partial of %d", len(spooled), len(blob))
	}
	if !bytes.Equal(spooled, blob[:len(spooled)]) {
		t.Fatal("spooled bytes do not match the layer prefix")
	}
	if _, err := os.Stat(spool + ".pullstate"); err != nil {
		t.Fatalf("no spool state left behind: %v", err)
	}

	// Process 2: a fresh client against a healthy server resumes the
	// layer from the spooled offset (observed as a Range request after
	// the manifest GET) and completes.
	srv2 := NewServer(store)
	srv2.ChunkSize = 512
	rec := &rangeRecordingServer{}
	ts2 := httptest.NewServer(rec.wrap(srv2.Handler()))
	defer ts2.Close()
	c2 := NewClientWithOptions(ts2.URL, chaosOptions(3))
	got, err := c2.PullToFile("chaos", "pepa", "latest", digest, dest)
	if err != nil {
		t.Fatalf("resumed pull failed: %v", err)
	}
	if got != digest {
		t.Errorf("digest = %s, want %s", got, digest)
	}
	ranges := rec.recorded()
	want := fmt.Sprintf("bytes=%d-", len(spooled))
	if len(ranges) != 2 || ranges[0] != "" || ranges[1] != want {
		t.Errorf("request Ranges = %q, want [\"\" %q] (manifest, resumed layer)", ranges, want)
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	final, err := image.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := final.VerifyDigest(digest); err != nil {
		t.Errorf("final file fails digest verification: %v", err)
	}
	for _, leftover := range []string{spool + ".partial", spool + ".pullstate"} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("spool file %s not cleaned up", leftover)
		}
	}
}
