package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/image"
)

// The transfer protocol: images move as a manifest plus layers, each
// layer negotiated by digest, so a push uploads only the layers the
// registry is missing and a pull downloads only the layers the client
// has not already cached — the registry analogue of the stage-level
// build cache. Manifests and layers are served with the same chunk-digest
// framing and Range resume (stream.go), and every request runs through
// the retry loop and breaker.
//
// Server endpoints:
//
//	POST /v1/_layers/missing            {"digests":[...]} -> {"missing":[...]}
//	GET  /v1/_layers/{digest}           one encoded layer (chunk-framed)
//	PUT  /v1/_layers/{digest}           stage one layer for later manifests
//	GET  /v1/{c}/{n}/{t}/manifest       the tag's manifest (chunk-framed)
//	PUT  /v1/{c}/{n}/{t}/manifest       commit a manifest; 412 + missing
//	                                    list when layers are absent
//
// Staged layers are a cache, not registry state: they are not journaled
// and the next compaction drops them unless a manifest references them.
// A client whose staged layers were lost between negotiation and commit
// sees 412 and re-negotiates once; the manifest commit is the only
// durable mutation of a push.

// handleLayerMissing answers POST /v1/_layers/missing: the negotiation
// step of a push.
func (s *Server) handleLayerMissing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(w, r, s.MaxUploadBytes)
	if err != nil {
		return
	}
	var req struct {
		Digests []string `json:"digests"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad negotiation request: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string][]string{"missing": s.Store.MissingLayers(req.Digests)})
}

// handleLayer answers GET/PUT /v1/_layers/{digest}.
func (s *Server) handleLayer(w http.ResponseWriter, r *http.Request, digest string) {
	switch r.Method {
	case http.MethodGet:
		blob, reason, ok := s.Store.layer(digest)
		if !ok {
			http.Error(w, "layer not found", http.StatusNotFound)
			return
		}
		if reason != "" {
			quarantined(w, reason)
			return
		}
		s.serveVerified(w, r, digest, blob, s.layerChunks(digest, blob))
	case http.MethodPut, http.MethodPost:
		body, err := readBody(w, r, s.MaxUploadBytes)
		if err != nil {
			return
		}
		d, err := s.Store.PutLayer(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if d != digest {
			// The layer is valid and stays staged under its true content
			// address; the request just named the wrong one.
			http.Error(w, fmt.Sprintf("layer digest mismatch: body is %s, url says %s", d, digest), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]string{"digest": d})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// quarantined answers 410 Gone with the typed error header: the bytes
// on hand are known-bad, and the fix is a re-push, not a retry.
func quarantined(w http.ResponseWriter, reason string) {
	w.Header().Set(headerHubError, hubErrQuarantined)
	http.Error(w, fmt.Sprintf("content quarantined (%s); re-push to repair", reason), http.StatusGone)
}

// handleManifest answers GET/PUT /v1/{coll}/{name}/{tag}/manifest.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request, coll, name, tag string) {
	switch r.Method {
	case http.MethodGet:
		e, body, reason, ok := s.Store.manifest(coll, name, tag)
		if !ok {
			http.Error(w, "image not found", http.StatusNotFound)
			return
		}
		if reason != "" {
			quarantined(w, reason)
			return
		}
		s.serveVerified(w, r, e.Digest, body, chunkDigests(body, s.chunkSize()))
	case http.MethodPut, http.MethodPost:
		body, err := readBody(w, r, s.MaxUploadBytes)
		if err != nil {
			return
		}
		m, err := image.ParseManifest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		missing, err := s.Store.PutManifest(coll, name, tag, m)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(missing) > 0 {
			// Precondition failed: the client must upload these layers and
			// retry the commit.
			data, err := json.Marshal(map[string][]string{"missing": missing})
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusPreconditionFailed)
			w.Write(data)
			return
		}
		writeJSON(w, map[string]string{"digest": m.ImageDigest})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// LayerCache is the client-side content-addressed layer cache: layers
// pulled or pushed once are reused across images and tags, so a pull of
// an image sharing layers with one already seen transfers only the new
// layers. Safe for concurrent use and shareable between clients (pass it
// via ClientOptions.LayerCache).
type LayerCache struct {
	mu     sync.Mutex
	layers map[string]*image.Layer
	hits   int64
}

// NewLayerCache creates an empty layer cache.
func NewLayerCache() *LayerCache {
	return &LayerCache{layers: map[string]*image.Layer{}}
}

func (lc *LayerCache) get(digest string) (*image.Layer, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	l, ok := lc.layers[digest]
	if ok {
		lc.hits++
	}
	return l, ok
}

func (lc *LayerCache) add(l *image.Layer) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if _, ok := lc.layers[l.Digest()]; !ok {
		lc.layers[l.Digest()] = l
	}
}

// Len returns the number of distinct layers cached.
func (lc *LayerCache) Len() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.layers)
}

// Hits counts lookups answered from the cache.
func (lc *LayerCache) Hits() int64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.hits
}

// LayerCache returns the client's layer cache.
func (c *Client) LayerCache() *LayerCache { return c.layerCache }

// MissingLayers asks the server which of the given layer digests a push
// must upload.
func (c *Client) MissingLayers(digests []string) ([]string, error) {
	body, err := json.Marshal(map[string][]string{"digests": digests})
	if err != nil {
		return nil, err
	}
	var out struct {
		Missing []string `json:"missing"`
	}
	err = c.do("negotiate layers", func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, c.BaseURL+"/v1/_layers/missing", bytes.NewReader(body))
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding negotiation response: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out.Missing, nil
}

// Push uploads an image and returns its digest: it asks the server which
// of the image's layers it is missing, uploads only those, then commits
// the manifest and checks the server's digest against the local one. A
// monolithic image travels as a single layer (the caller's image is not
// modified). If the server loses staged layers between negotiation and
// commit (e.g. it compacted or restarted), the 412 answer triggers one
// full re-negotiation before giving up.
func (c *Client) Push(coll string, img *image.Image) (string, error) {
	layered := *img
	m, err := layered.Manifest()
	if err != nil {
		return "", err
	}
	manifestBytes, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	byDigest := make(map[string]*image.Layer, len(layered.Layers))
	digests := make([]string, 0, len(layered.Layers))
	for _, l := range layered.Layers {
		byDigest[l.Digest()] = l
		digests = append(digests, l.Digest())
	}
	ref := key(coll, img.Meta.Name, img.Meta.Tag)
	for attempt := 0; ; attempt++ {
		missing, err := c.MissingLayers(digests)
		if err != nil {
			return "", err
		}
		c.obs.Add("hub_client_layers_skipped_total", float64(len(digests)-len(missing)))
		for _, d := range missing {
			l, ok := byDigest[d]
			if !ok {
				return "", fmt.Errorf("hub: server wants layer %s the image does not carry", d)
			}
			if err := c.pushLayer(l); err != nil {
				return "", err
			}
		}
		err = c.putManifest(coll, img.Meta.Name, img.Meta.Tag, manifestBytes, m.ImageDigest)
		if err == nil {
			for _, l := range layered.Layers {
				c.layerCache.add(l)
			}
			return m.ImageDigest, nil
		}
		var he *HTTPError
		if errors.As(err, &he) && he.Status == http.StatusPreconditionFailed && attempt == 0 {
			c.logf("push %s: staged layers lost, re-negotiating", ref)
			continue
		}
		return "", err
	}
}

// pushLayer uploads one encoded layer, verifying the server's echoed
// digest.
func (c *Client) pushLayer(l *image.Layer) error {
	op := "pushlayer " + l.Digest()
	url := c.BaseURL + "/v1/_layers/" + l.Digest()
	err := c.do(op, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPut, url, bytes.NewReader(l.Bytes()))
	}, func(resp *http.Response) error {
		var out struct {
			Digest string `json:"digest"`
		}
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding layer push response: %v", ErrCorrupt, err)
		}
		if out.Digest != l.Digest() {
			return fmt.Errorf("%w: server layer digest %s != local %s", ErrCorrupt, out.Digest, l.Digest())
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.obs.Inc("hub_client_layers_pushed_total")
	c.obs.Add("hub_client_layer_bytes_pushed_total", float64(l.Size()))
	return nil
}

// putManifest commits a manifest and verifies the server-computed digest
// against the local one. A 412 (missing layers) surfaces as *HTTPError
// for the caller to re-negotiate.
func (c *Client) putManifest(coll, name, tag string, manifestBytes []byte, localDigest string) error {
	url := fmt.Sprintf("%s/v1/%s/%s/%s/manifest", c.BaseURL, coll, name, tag)
	return c.do("push "+key(coll, name, tag), func() (*http.Request, error) {
		return http.NewRequest(http.MethodPut, url, bytes.NewReader(manifestBytes))
	}, func(resp *http.Response) error {
		var out struct {
			Digest string `json:"digest"`
		}
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding manifest response: %v", ErrCorrupt, err)
		}
		if out.Digest != localDigest {
			return fmt.Errorf("%w: server digest %s != local digest %s", ErrCorrupt, out.Digest, localDigest)
		}
		return nil
	})
}
