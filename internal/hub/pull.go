package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/fsatomic"
	"repro/internal/image"
)

// Client-side pull: fetch the tag's manifest, then every layer not
// already in the client's LayerCache, and reassemble — verifying each
// layer's digest and the flattened image digest. Every fetch streams in
// digest-framed chunks (the chunk list arrives in response headers, see
// stream.go), the response-size cap is enforced as bytes arrive, and
// verified chunks survive a failed attempt: the next attempt sends a
// Range request from the last verified chunk boundary instead of
// re-pulling from byte zero. PullToFile additionally spools each layer's
// verified bytes to disk, so a pull interrupted across process restarts
// resumes too.

// pullProgress is the cross-attempt state of one fetch.
type pullProgress struct {
	adv       string   // advertised digest (pinned on first response)
	chunkSize int      // framing granularity from the server
	chunks    []string // the whole body's chunk digest list
	total     int      // whole body size (-1 until known)
	buf       []byte   // verified bytes (always chunk-aligned or complete)
	verified  int      // number of verified chunks in buf
	spool     *pullSpool
}

func (st *pullProgress) reset() {
	st.adv, st.chunks, st.buf, st.verified, st.total, st.chunkSize = "", nil, nil, 0, -1, 0
	if st.spool != nil {
		st.spool.discard()
	}
}

// absorb verifies one completed chunk against the chunk list and commits
// it to the verified prefix (and the spool, when present).
func (st *pullProgress) absorb(chunk []byte) error {
	if st.verified >= len(st.chunks) {
		return fmt.Errorf("%w: body longer than its chunk list (%d chunks)", ErrCorrupt, len(st.chunks))
	}
	sum := sha256.Sum256(chunk)
	if hex.EncodeToString(sum[:]) != st.chunks[st.verified] {
		return fmt.Errorf("%w: chunk %d/%d failed digest verification", ErrCorrupt, st.verified+1, len(st.chunks))
	}
	st.buf = append(st.buf, chunk...)
	st.verified++
	if st.spool != nil {
		if err := st.spool.commit(st, chunk); err != nil {
			return err
		}
	}
	return nil
}

// complete reports whether every byte (and chunk) has been verified.
func (st *pullProgress) complete() bool {
	if st.total >= 0 {
		return len(st.buf) == st.total
	}
	return st.verified == len(st.chunks)
}

// Pull downloads an image and verifies it against the digest its
// manifest advertises (and, when expectedDigest is non-empty, against
// that): the manifest first, then only the layers the client's layer
// cache lacks. Truncated transfers resume from the last verified chunk
// on the next attempt, and a corrupt manifest or layer is re-pulled
// once (a second corruption means the stored content is bad).
func (c *Client) Pull(coll, name, tag, expectedDigest string) (*image.Image, string, error) {
	return c.pull(coll, name, tag, expectedDigest, "")
}

// PullToFile pulls coll/name:tag into destPath (written atomically) and
// returns the digest. Each layer's partial
// progress is spooled next to destPath ("<dest>.<layer hex>.partial" and
// ".pullstate"); if a previous PullToFile was interrupted mid-layer —
// even in another process — that layer resumes from the spooled
// verified offset, and its spool is removed once the layer verifies.
func (c *Client) PullToFile(coll, name, tag, expectedDigest, destPath string) (string, error) {
	img, digest, err := c.pull(coll, name, tag, expectedDigest, destPath)
	if err != nil {
		return "", err // layer spools stay behind for the next run to resume
	}
	blob, err := img.Marshal()
	if err != nil {
		return "", err
	}
	if err := fsatomic.WriteFile(destPath, blob, 0o644); err != nil {
		return "", err
	}
	return digest, nil
}

// pull fetches the manifest and the uncached layers and reassembles the
// image. A non-empty spoolDest spools each layer fetch beside that path.
func (c *Client) pull(coll, name, tag, expectedDigest, spoolDest string) (*image.Image, string, error) {
	var m *image.Manifest
	st := &pullProgress{total: -1}
	url := fmt.Sprintf("%s/v1/%s/%s/%s/manifest", c.BaseURL, coll, name, tag)
	err := c.fetch("pull "+key(coll, name, tag), url, st, expectedDigest, func(body []byte) error {
		got, err := image.ParseManifest(body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if got.ImageDigest != st.adv {
			return fmt.Errorf("%w: advertised digest %s != manifest digest %s", ErrCorrupt, st.adv, got.ImageDigest)
		}
		m = got
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	layers := make([]*image.Layer, len(m.Layers))
	for i, desc := range m.Layers {
		if l, ok := c.layerCache.get(desc.Digest); ok {
			c.obs.Inc("hub_client_layer_cache_hits_total")
			layers[i] = l
			continue
		}
		var spool *pullSpool
		if spoolDest != "" {
			hexDigest := strings.TrimPrefix(desc.Digest, "sha256:")
			spool = &pullSpool{
				dataPath:  spoolDest + "." + hexDigest + ".partial",
				statePath: spoolDest + "." + hexDigest + ".pullstate",
			}
		}
		l, err := c.pullLayer(desc.Digest, spool)
		if err != nil {
			return nil, "", err
		}
		c.layerCache.add(l)
		layers[i] = l
	}
	img, err := image.AssembleFromLayers(m.Config, layers)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := img.VerifyDigest(m.ImageDigest); err != nil {
		return nil, "", fmt.Errorf("%w: reassembled image: %v", ErrCorrupt, err)
	}
	return img, m.ImageDigest, nil
}

// pullLayer downloads and decodes one layer, resuming from spool's
// verified offset when a spool is given.
func (c *Client) pullLayer(digest string, spool *pullSpool) (*image.Layer, error) {
	st := &pullProgress{total: -1, spool: spool}
	if spool != nil {
		spool.restore(st, digest)
	}
	var layer *image.Layer
	err := c.fetch("pulllayer "+digest, c.BaseURL+"/v1/_layers/"+digest, st, digest, func(body []byte) error {
		l, err := image.DecodeLayer(body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if l.Digest() != digest {
			return fmt.Errorf("%w: pulled layer digest %s != %s", ErrCorrupt, l.Digest(), digest)
		}
		layer = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	spool.discard()
	c.obs.Inc("hub_client_layers_pulled_total")
	c.obs.Add("hub_client_layer_bytes_pulled_total", float64(layer.Size()))
	return layer, nil
}

// fetch GETs one chunk-framed body through the retry loop, resuming from
// the last verified chunk across attempts, and hands the complete
// verified body to accept. A body accept rejects is fetched afresh by
// the next attempt.
func (c *Client) fetch(op, url string, st *pullProgress, expectedDigest string, accept func(body []byte) error) error {
	return c.do(op, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if len(st.buf) > 0 {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(st.buf)))
			c.logf("%s resuming from verified offset %d", op, len(st.buf))
			c.obs.Inc("hub_client_pull_resumes_total")
		}
		return req, nil
	}, func(resp *http.Response) error {
		body, err := c.readPull(st, resp, expectedDigest)
		if err != nil {
			return err
		}
		if err := accept(body); err != nil {
			st.reset()
			return err
		}
		return nil
	})
}

// readPull consumes one pull response incrementally, returning the
// complete verified body or an error classified for the retry loop
// (transient read faults resume; chunk mismatches are ErrCorrupt).
func (c *Client) readPull(st *pullProgress, resp *http.Response, expectedDigest string) ([]byte, error) {
	adv := resp.Header.Get(headerDigest)
	if expectedDigest != "" && adv != expectedDigest {
		return nil, fmt.Errorf("%w: pulled digest %s != expected %s", ErrCorrupt, adv, expectedDigest)
	}
	if st.adv != "" && adv != st.adv {
		// The tag was re-pushed between attempts; the verified prefix
		// belongs to different content. Start over.
		prev := st.adv
		st.reset()
		return nil, fmt.Errorf("hub: content changed during pull (digest %s -> %s)", prev, adv)
	}
	st.adv = adv

	chunkSize := 0
	var chunks []string
	if v := resp.Header.Get(headerChunkSize); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			chunkSize = n
		}
	}
	if v := resp.Header.Get(headerChunkList); chunkSize > 0 && v != "" {
		chunks = strings.Split(v, ",")
	}
	if chunks == nil {
		return nil, fmt.Errorf("%w: response carries no chunk digests", ErrCorrupt)
	}
	if st.chunks != nil && !equalStrings(st.chunks, chunks) {
		st.reset()
		return nil, fmt.Errorf("hub: chunk list changed during pull")
	}
	st.chunkSize, st.chunks = chunkSize, chunks

	switch resp.StatusCode {
	case http.StatusPartialContent:
		start, total, err := parseContentRange(resp.Header.Get("Content-Range"))
		if err != nil {
			st.reset()
			return nil, fmt.Errorf("hub: unparsable Content-Range: %v", err)
		}
		if start != len(st.buf) {
			st.reset()
			return nil, fmt.Errorf("hub: server resumed at %d, wanted %d", start, len(st.buf))
		}
		st.total = total
	default: // 200: a full body, regardless of any Range we sent
		if len(st.buf) > 0 {
			st.reset()
			st.adv = adv
			st.chunkSize, st.chunks = chunkSize, chunks
		}
		if resp.ContentLength >= 0 {
			st.total = int(resp.ContentLength)
		}
	}
	if st.total >= 0 && int64(st.total) > c.MaxResponseBytes {
		return nil, fmt.Errorf("hub: response exceeds %d-byte cap", c.MaxResponseBytes)
	}

	effChunk := st.chunkSize
	var pending []byte
	rbuf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(rbuf)
		if n > 0 {
			// Incremental size-cap enforcement: an oversized body aborts
			// here, mid-stream, not after a full download.
			if int64(len(st.buf)+len(pending)+n) > c.MaxResponseBytes {
				return nil, fmt.Errorf("hub: response exceeds %d-byte cap", c.MaxResponseBytes)
			}
			pending = append(pending, rbuf[:n]...)
			for len(pending) >= effChunk {
				if aerr := st.absorb(pending[:effChunk:effChunk]); aerr != nil {
					return nil, aerr
				}
				pending = pending[effChunk:]
				c.obs.Inc("hub_client_pull_chunks_verified_total")
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err // read/truncation faults classify as transient
		}
	}
	if len(pending) > 0 {
		// A trailing short chunk is only valid as the blob's final chunk.
		if st.total >= 0 && len(st.buf)+len(pending) != st.total {
			return nil, io.ErrUnexpectedEOF
		}
		if st.verified != len(st.chunks)-1 {
			return nil, io.ErrUnexpectedEOF
		}
		if err := st.absorb(pending); err != nil {
			return nil, err
		}
		c.obs.Inc("hub_client_pull_chunks_verified_total")
	}
	if !st.complete() {
		return nil, io.ErrUnexpectedEOF
	}
	return st.buf, nil
}

// parseContentRange parses "bytes START-END/TOTAL".
func parseContentRange(h string) (start, total int, err error) {
	rest, found := strings.CutPrefix(h, "bytes ")
	if !found {
		return 0, 0, fmt.Errorf("missing bytes prefix in %q", h)
	}
	span, totalStr, found := strings.Cut(rest, "/")
	if !found {
		return 0, 0, fmt.Errorf("missing total in %q", h)
	}
	startStr, _, found := strings.Cut(span, "-")
	if !found {
		return 0, 0, fmt.Errorf("missing span in %q", h)
	}
	if start, err = strconv.Atoi(startStr); err != nil {
		return 0, 0, err
	}
	if total, err = strconv.Atoi(totalStr); err != nil {
		return 0, 0, err
	}
	return start, total, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pullSpool persists pull progress on disk: verified bytes in dataPath,
// and a JSON state file naming the digest, framing, and verified offset.
// Bytes are appended before the state is updated, so a crash between the
// two leaves extra unacknowledged bytes that restore() truncates away.
type pullSpool struct {
	dataPath  string
	statePath string
	f         *fsatomic.AppendFile
}

type pullSpoolState struct {
	Digest    string `json:"digest"`
	ChunkSize int    `json:"chunkSize"`
	Total     int    `json:"total"`
	Offset    int    `json:"offset"`
	Verified  int    `json:"verified"`
	Chunks    string `json:"chunks"`
}

// restore loads spooled progress into st, discarding the spool if it is
// unreadable, inconsistent, or belongs to different content.
func (p *pullSpool) restore(st *pullProgress, expectedDigest string) {
	raw, err := os.ReadFile(p.statePath)
	if err != nil {
		p.discard()
		return
	}
	var s pullSpoolState
	if err := json.Unmarshal(raw, &s); err != nil || s.Offset <= 0 || s.ChunkSize <= 0 {
		p.discard()
		return
	}
	if expectedDigest != "" && s.Digest != expectedDigest {
		p.discard()
		return
	}
	data, err := os.ReadFile(p.dataPath)
	if err != nil || len(data) < s.Offset {
		p.discard()
		return
	}
	st.adv = s.Digest
	st.chunkSize = s.ChunkSize
	st.total = s.Total
	st.buf = data[:s.Offset]
	st.verified = s.Verified
	if s.Chunks != "" {
		st.chunks = strings.Split(s.Chunks, ",")
	}
	// Drop unacknowledged tail bytes, if any, so appends line up.
	if len(data) > s.Offset {
		os.WriteFile(p.dataPath, st.buf, 0o644)
	}
}

// commit appends one verified chunk and records the new offset.
func (p *pullSpool) commit(st *pullProgress, chunk []byte) error {
	if p.f == nil {
		// First commit of this run: materialize the file to the verified
		// prefix that preceded this chunk, then append from there.
		if err := os.WriteFile(p.dataPath, st.buf[:len(st.buf)-len(chunk)], 0o644); err != nil {
			return fmt.Errorf("hub: pull spool: %w", err)
		}
		f, err := fsatomic.OpenAppend(p.dataPath)
		if err != nil {
			return fmt.Errorf("hub: pull spool: %w", err)
		}
		p.f = f
	}
	if err := p.f.Append(chunk); err != nil {
		return fmt.Errorf("hub: pull spool: %w", err)
	}
	state := pullSpoolState{
		Digest: st.adv, ChunkSize: st.chunkSize, Total: st.total,
		Offset: len(st.buf), Verified: st.verified,
		Chunks: strings.Join(st.chunks, ","),
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return err
	}
	if err := fsatomic.WriteFile(p.statePath, raw, 0o644); err != nil {
		return fmt.Errorf("hub: pull spool: %w", err)
	}
	return nil
}

// discard wipes the spool (progress invalid or restarted).
func (p *pullSpool) discard() {
	if p == nil {
		return
	}
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
	os.Remove(p.dataPath)
	os.Remove(p.statePath)
}
