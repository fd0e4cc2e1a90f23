package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Streaming delivery: manifests and layers are served with HTTP Range
// support and a digest-framed chunk list, so a client can verify each
// transfer chunk by chunk — a corrupt manifest is caught exactly like a
// corrupt layer — and resume an interrupted one from the last verified
// chunk boundary instead of byte zero. The chunk list travels in
// response headers (one SHA-256 per fixed-size chunk of the body),
// which keeps every fetch a single request — resumable pulls do not
// perturb fault-plan op sequences in chaos tests.

// DefaultChunkSize is the digest-framing granularity (64 KiB).
const DefaultChunkSize = 64 << 10

// Response headers describing the chunk framing.
const (
	headerDigest      = "X-Image-Digest"
	headerChunkSize   = "X-Image-Chunk-Size"
	headerChunkList   = "X-Image-Chunk-Digests"
	headerHubError    = "X-Hub-Error"
	hubErrQuarantined = "quarantined"
)

// chunkDigests splits blob into chunkSize pieces and returns the hex
// SHA-256 of each (the final chunk may be short).
func chunkDigests(blob []byte, chunkSize int) []string {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	n := (len(blob) + chunkSize - 1) / chunkSize
	out := make([]string, 0, n)
	for off := 0; off < len(blob); off += chunkSize {
		end := off + chunkSize
		if end > len(blob) {
			end = len(blob)
		}
		sum := sha256.Sum256(blob[off:end])
		out = append(out, hex.EncodeToString(sum[:]))
	}
	return out
}

// chunkSize returns the effective framing granularity.
func (s *Server) chunkSize() int {
	if s.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return s.ChunkSize
}

// layerChunks returns the (memoized) chunk digest list for a layer. The
// cache is keyed by the layer's content digest, so it never goes stale.
func (s *Server) layerChunks(digest string, data []byte) []string {
	s.chunkMu.Lock()
	defer s.chunkMu.Unlock()
	if m, ok := s.chunkCache[digest]; ok {
		return m
	}
	m := chunkDigests(data, s.chunkSize())
	s.chunkCache[digest] = m
	return m
}

// parseRange parses a single-range "bytes=N-" or "bytes=N-M" header
// against a resource of the given size. It returns the start offset and
// the (exclusive) end. ok is false when the header is absent or not a
// single byte range we serve (the caller then sends the full body).
func parseRange(h string, size int) (start, end int, ok bool, satisfiable bool) {
	if h == "" || !strings.HasPrefix(h, "bytes=") {
		return 0, 0, false, true
	}
	spec := strings.TrimPrefix(h, "bytes=")
	if strings.Contains(spec, ",") {
		// Multi-range requests are not used by our client; serve full.
		return 0, 0, false, true
	}
	first, last, found := strings.Cut(spec, "-")
	if !found || first == "" {
		// Suffix ranges ("bytes=-N") are not used by our client.
		return 0, 0, false, true
	}
	s0, err := strconv.Atoi(first)
	if err != nil || s0 < 0 {
		return 0, 0, false, true
	}
	e0 := size
	if last != "" {
		l, err := strconv.Atoi(last)
		if err != nil || l < s0 {
			return 0, 0, false, true
		}
		if l+1 < e0 {
			e0 = l + 1
		}
	}
	if s0 >= size {
		return 0, 0, true, false // syntactically valid but unsatisfiable
	}
	return s0, e0, true, true
}

// serveVerified streams one body — a manifest or a layer — with the
// digest header (the image digest for a manifest, the layer's own for a
// layer), its chunk list, and Range support.
func (s *Server) serveVerified(w http.ResponseWriter, r *http.Request, digest string, blob []byte, chunks []string) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set(headerDigest, digest)
	w.Header().Set(headerChunkSize, strconv.Itoa(s.chunkSize()))
	w.Header().Set(headerChunkList, strings.Join(chunks, ","))

	start, end, ranged, satisfiable := parseRange(r.Header.Get("Range"), len(blob))
	if !satisfiable {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", len(blob)))
		http.Error(w, "range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	if !ranged {
		start, end = 0, len(blob)
	}
	w.Header().Set("Content-Length", strconv.Itoa(end-start))
	if ranged {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end-1, len(blob)))
		w.WriteHeader(http.StatusPartialContent)
	}
	// Stored bytes are immutable (the store swaps slices, never edits
	// them), so writing directly streams without a per-request copy.
	w.Write(blob[start:end])
}
