package hub

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/rng"
)

// committedState renders what a store answers about its committed
// contents: every collection's listing, every tag's manifest as served
// over HTTP, the number of referenced layers, and the status and bytes
// served for each digest in layerDigests. Staged layers never committed
// by a manifest are a cache and deliberately not part of it.
func committedState(s *Store, layerDigests []string) string {
	h := NewServer(s).Handler()
	get := func(path string) (int, [32]byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, sha256.Sum256(rec.Body.Bytes())
	}
	var b strings.Builder
	for _, coll := range s.Collections() {
		for _, e := range s.List(coll) {
			code, sum := get("/v1/" + coll + "/" + e.Container + "/" + e.Tag + "/manifest")
			fmt.Fprintf(&b, "entry %+v\n  manifest %d %x\n", e, code, sum)
		}
	}
	fmt.Fprintf(&b, "layers %d\n", s.LayerCount())
	for _, d := range layerDigests {
		code, sum := get("/v1/_layers/" + d)
		fmt.Fprintf(&b, "layer %s %d %x\n", d, code, sum)
	}
	return b.String()
}

// layerDigestsOf returns the digests of the layers an image is stored
// as: its own chain, or the single layer of a monolithic image.
func layerDigestsOf(t *testing.T, img *image.Image) []string {
	t.Helper()
	cp := *img
	m, err := cp.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = l.Digest
	}
	return out
}

// TestRestartEquivalenceProperty: for random sequences of put,
// overwrite, delete, layer staging, quarantine and compaction, the
// committed state a durable store answers with is the same before and
// after a crash restart (and after a clean close and reopen). Staged
// layers are a cache outside that comparison, but they — like the layers
// only deleted or overwritten tags referenced — must be gone (404) once
// the store compacts.
func TestRestartEquivalenceProperty(t *testing.T) {
	stageSets := [][]string{{"deps-1", "deps-2"}, {"solver-1", "solver-2", "solver-3"}}
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			dir := t.TempDir()
			s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			type ref struct{ name, tag string }
			model := map[ref]*image.Image{} // what each tag should hold
			seen := map[string]bool{}       // every layer digest ever sent
			var trail []string

			randomImage := func(name, tag string) *image.Image {
				if r.Intn(4) == 0 {
					return testImage(name, tag, fmt.Sprintf("mono-%d", r.Intn(3)))
				}
				return layeredTestImage(t, name, tag, "base",
					stageSets[0][r.Intn(len(stageSets[0]))], stageSets[1][r.Intn(len(stageSets[1]))])
			}
			put := func(name, tag string) {
				img := randomImage(name, tag)
				var blob []byte
				if img.Layered() {
					blob, err = img.MarshalLayered()
				} else {
					blob, err = img.Marshal()
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Put("c", name, tag, blob); err != nil {
					t.Fatal(err)
				}
				model[ref{name, tag}] = img
				for _, d := range layerDigestsOf(t, img) {
					seen[d] = true
				}
			}
			tagged := func() []ref {
				out := make([]ref, 0, len(model))
				for k := range model {
					out = append(out, k)
				}
				sort.Slice(out, func(i, j int) bool { return out[i].name+out[i].tag < out[j].name+out[j].tag })
				return out
			}

			for op := 0; op < 16; op++ {
				existing := tagged()
				switch k := r.Intn(6); {
				case k == 0 || len(existing) == 0: // put a fresh tag
					name, tag := fmt.Sprintf("app%d", r.Intn(3)), fmt.Sprintf("v%d", r.Intn(2))
					trail = append(trail, "put "+name+":"+tag)
					put(name, tag)
				case k == 1: // overwrite
					e := existing[r.Intn(len(existing))]
					trail = append(trail, "overwrite "+e.name+":"+e.tag)
					put(e.name, e.tag)
				case k == 2: // delete
					e := existing[r.Intn(len(existing))]
					trail = append(trail, "delete "+e.name+":"+e.tag)
					if ok, err := s.Delete("c", e.name, e.tag); err != nil || !ok {
						t.Fatalf("delete %v: %v, %v", e, ok, err)
					}
					delete(model, e)
				case k == 3: // stage a layer no manifest commits
					stray := layeredTestImage(t, "stray", "x", fmt.Sprintf("stray-%d", r.Intn(4)))
					trail = append(trail, "stage")
					if _, err := s.PutLayer(stray.Layers[0].Bytes()); err != nil {
						t.Fatal(err)
					}
					seen[stray.Layers[0].Digest()] = true
				case k == 4: // bit rot caught by a scrub
					e := existing[r.Intn(len(existing))]
					trail = append(trail, "quarantine "+e.name+":"+e.tag)
					s.FlipBit("c", e.name, e.tag, r.Intn(1<<20))
					s.ScrubOnce(nil)
				default:
					trail = append(trail, "compact")
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}

			referenced := map[string]bool{}
			for _, img := range model {
				for _, d := range layerDigestsOf(t, img) {
					referenced[d] = true
				}
			}
			var refDigests []string
			for d := range referenced {
				refDigests = append(refDigests, d)
			}
			sort.Strings(refDigests)
			want := committedState(s, refDigests)

			crashed, _, err := OpenDurable(copyStateDir(t, dir, 1<<30), DurableOptions{CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			if got := committedState(crashed, refDigests); got != want {
				t.Errorf("crash restart changed the committed state after %v:\n--- before\n%s--- after\n%s", trail, want, got)
			}
			crashed.Close()

			// Compaction drops staged and released layers: every digest the
			// sequence sent that no current tag references is now 404.
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			h := NewServer(s).Handler()
			for d := range seen {
				if referenced[d] {
					continue
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/_layers/"+d, nil))
				if rec.Code != http.StatusNotFound {
					t.Errorf("unreferenced layer %s answers %d after compaction, want 404 (ops %v)", d, rec.Code, trail)
				}
			}
			if got := committedState(s, refDigests); got != want {
				t.Errorf("compaction changed the committed state after %v:\n--- before\n%s--- after\n%s", trail, want, got)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, _, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if got := committedState(reopened, refDigests); got != want {
				t.Errorf("close and reopen changed the committed state after %v:\n--- before\n%s--- after\n%s", trail, want, got)
			}
		})
	}
}
