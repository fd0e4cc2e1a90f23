package hub

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/image"
	"repro/internal/vfs"
)

// layeredTestImage builds an image with one layer per stage content:
// identical stage prefixes produce identical (shared) layers.
func layeredTestImage(t *testing.T, name, tag string, stages ...string) *image.Image {
	t.Helper()
	snaps := make([]*vfs.FS, 0, len(stages))
	fs := vfs.New()
	for i, content := range stages {
		fs = fs.Clone()
		if err := fs.WriteFile(fmt.Sprintf("/stage%d", i), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, fs)
	}
	layers, err := image.LayersFromSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	meta := image.Metadata{Name: name, Tag: tag, BaseRef: "centos:7.4", BuildHost: "centos-7.4-proliant"}
	img, err := image.AssembleFromLayers(meta, layers)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestLayeredPushPullRoundTrip(t *testing.T) {
	c, store, done := newTestClient(t)
	defer done()
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	localDigest, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}

	digest, err := c.Push("pepa-tools", img)
	if err != nil {
		t.Fatal(err)
	}
	if digest != localDigest {
		t.Errorf("push digest = %s, want %s", digest, localDigest)
	}

	// The tag holds exactly the client's manifest.
	_, body, _, ok := store.manifest("pepa-tools", "pepa", "latest")
	if !ok {
		t.Fatal("entry missing after push")
	}
	m, err := img.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("stored manifest differs from the local one:\n got %s\nwant %s", body, want)
	}
	entries := store.List("pepa-tools")
	if len(entries) != 1 || entries[0].Layers != 3 {
		t.Errorf("entries = %+v, want one entry with 3 layers", entries)
	}

	// A fresh client reassembles the image from its layers.
	c2 := NewClient(strings.TrimSuffix(c.BaseURL, "/"))
	pulled, gotDigest, err := c2.Pull("pepa-tools", "pepa", "latest", localDigest)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != localDigest {
		t.Errorf("pull digest = %s, want %s", gotDigest, localDigest)
	}
	for i, content := range []string{"base", "deps", "solver"} {
		data, err := pulled.FS.ReadFile(fmt.Sprintf("/stage%d", i))
		if err != nil || string(data) != content {
			t.Errorf("stage%d = %q, %v; want %q", i, data, err, content)
		}
	}
	if len(pulled.Layers) != 3 {
		t.Errorf("pulled image carries %d layers, want 3", len(pulled.Layers))
	}
}

func TestLayeredPushTransfersOnlyMissingLayers(t *testing.T) {
	c, store, done := newTestClient(t)
	defer done()
	a := layeredTestImage(t, "pepa", "v1", "base", "deps", "solver-v1")
	if _, err := c.Push("coll", a); err != nil {
		t.Fatal(err)
	}
	if got := store.LayerCount(); got != 3 {
		t.Fatalf("LayerCount = %d, want 3", got)
	}

	// The second image shares the first two layers; only the third
	// should cross the wire.
	b := layeredTestImage(t, "pepa", "v2", "base", "deps", "solver-v2")
	c.ResetAttemptLog()
	if _, err := c.Push("coll", b); err != nil {
		t.Fatal(err)
	}
	uploads := c.AttemptsMatching("pushlayer ")
	if len(uploads) != 1 {
		t.Errorf("pushed %d layers, want 1: %v", len(uploads), uploads)
	}
	if got := store.LayerCount(); got != 4 {
		t.Errorf("LayerCount = %d, want 4", got)
	}

	// Re-pushing the same image uploads nothing and is idempotent.
	c.ResetAttemptLog()
	if _, err := c.Push("coll", b); err != nil {
		t.Fatal(err)
	}
	if uploads := c.AttemptsMatching("pushlayer "); len(uploads) != 0 {
		t.Errorf("re-push uploaded %d layers, want 0: %v", len(uploads), uploads)
	}
}

func TestLayeredPullUsesLayerCache(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	a := layeredTestImage(t, "pepa", "v1", "base", "deps", "solver-v1")
	b := layeredTestImage(t, "pepa", "v2", "base", "deps", "solver-v2")
	da, _ := a.Digest()
	db, _ := b.Digest()
	if _, err := c.Push("coll", a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("coll", b); err != nil {
		t.Fatal(err)
	}

	puller := NewClient(c.BaseURL)
	if _, _, err := puller.Pull("coll", "pepa", "v1", da); err != nil {
		t.Fatal(err)
	}
	if got := puller.AttemptsMatching("pulllayer "); len(got) != 3 {
		t.Fatalf("cold pull fetched %d layers, want 3: %v", len(got), got)
	}
	puller.ResetAttemptLog()
	if _, _, err := puller.Pull("coll", "pepa", "v2", db); err != nil {
		t.Fatal(err)
	}
	if got := puller.AttemptsMatching("pulllayer "); len(got) != 1 {
		t.Errorf("warm pull fetched %d layers, want 1: %v", len(got), got)
	}
	if hits := puller.LayerCache().Hits(); hits < 2 {
		t.Errorf("layer cache hits = %d, want >= 2", hits)
	}
}

// TestMonolithicPushIsSingleLayerManifest: a monolithic (SCIF1) image
// travels and is stored as a one-layer manifest, and pulls back with
// the same digest and the same SCIF1 bytes.
func TestMonolithicPushIsSingleLayerManifest(t *testing.T) {
	c, store, done := newTestClient(t)
	defer done()
	img := testImage("pepa", "latest", "monolithic")
	digest, err := c.Push("coll", img)
	if err != nil {
		t.Fatal(err)
	}
	if img.Layered() {
		t.Error("Push layerized the caller's image")
	}
	if entries := store.List("coll"); len(entries) != 1 || entries[0].Layers != 1 {
		t.Errorf("entries = %+v, want one single-layer entry", entries)
	}

	pulled, gotDigest, err := NewClient(c.BaseURL).Pull("coll", "pepa", "latest", digest)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != digest {
		t.Errorf("pull digest = %s, want %s", gotDigest, digest)
	}
	if string(mustBlob(t, pulled)) != string(mustBlob(t, img)) {
		t.Error("pulled image is not byte-identical to the pushed SCIF1 image")
	}
}

func TestLayeredPushRenegotiatesOn412(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	inner := srv.Handler()
	var once sync.Once
	// Compact just before the first manifest commit: compaction drops
	// staged layers no manifest references yet, as a registry that
	// compacts (or restarts) between negotiation and commit does.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/manifest") {
			once.Do(func() {
				if err := store.Compact(); err != nil {
					t.Error(err)
				}
			})
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	localDigest, _ := img.Digest()
	digest, err := c.Push("coll", img)
	if err != nil {
		t.Fatal(err)
	}
	if digest != localDigest {
		t.Errorf("digest = %s, want %s", digest, localDigest)
	}
	// Two negotiation rounds: 3 uploads, a 412, then 3 re-uploads.
	if uploads := c.AttemptsMatching("pushlayer "); len(uploads) != 6 {
		t.Errorf("pushed %d layers across renegotiation, want 6: %v", len(uploads), uploads)
	}
	if _, _, ok := storedImage(t, store, "coll", "pepa", "latest"); !ok {
		t.Error("entry missing after renegotiated push")
	}
}

func TestStoreIndexesLayersFromInstalledBlobs(t *testing.T) {
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	blob, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	if _, err := store.Put("coll", "pepa", "latest", blob); err != nil {
		t.Fatal(err)
	}
	if got := store.LayerCount(); got != 3 {
		t.Errorf("LayerCount = %d, want 3", got)
	}
	var digests []string
	for _, l := range img.Layers {
		digests = append(digests, l.Digest())
	}
	if missing := store.MissingLayers(digests); len(missing) != 0 {
		t.Errorf("MissingLayers = %v, want none", missing)
	}
	for _, l := range img.Layers {
		frame, _, ok := store.layer(l.Digest())
		if !ok || string(frame) != string(l.Bytes()) {
			t.Errorf("layer %s missing or differs", l.Digest())
		}
	}
}
