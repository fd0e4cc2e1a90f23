package hub

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/image"
)

// The registry's storage model: layers are the only stored content. A
// layer is an encoded, content-addressed changeset (image.Layer bytes),
// held once and reference-counted by the manifests that list it. A tag
// holds only its manifest — the run configuration plus the ordered
// layer digests — so pushing, overwriting and deleting images moves
// refcounts, never bytes. Layers uploaded ahead of a manifest commit
// are staged with no references; like the layers a delete or overwrite
// releases, they answer negotiation as a cache until the next
// compaction removes them. Integrity is tracked per layer as well: a
// layer whose bytes fail their digest is quarantined, and every tag
// listing it answers 410 Gone until a push uploads the layer again.

// Entry describes one stored image version.
type Entry struct {
	Collection string `json:"collection"`
	Container  string `json:"container"`
	Tag        string `json:"tag"`
	Digest     string `json:"digest"`
	// Size is the encoded size of the entry's layers in bytes.
	Size      int    `json:"size"`
	BuildHost string `json:"buildHost,omitempty"`
	// Layers counts the content-addressed layers the manifest lists.
	Layers int `json:"layers,omitempty"`
	// Quarantined marks an entry one of whose layers failed digest
	// verification (scrubber or recovery); it is served as 410 Gone
	// until a re-push repairs the layer.
	Quarantined bool `json:"quarantined,omitempty"`
}

// taggedManifest is what one tag holds. It is also the form tags take
// in the snapshot and in journaled puts.
type taggedManifest struct {
	Collection string          `json:"collection"`
	Container  string          `json:"container"`
	Tag        string          `json:"tag"`
	Manifest   *image.Manifest `json:"manifest,omitempty"`
}

func (t taggedManifest) key() string { return key(t.Collection, t.Container, t.Tag) }

// entry derives the tag's listing entry (quarantine aside).
func (t taggedManifest) entry() Entry {
	e := Entry{
		Collection: t.Collection, Container: t.Container, Tag: t.Tag,
		Digest: t.Manifest.ImageDigest, BuildHost: t.Manifest.Config.BuildHost,
		Layers: len(t.Manifest.Layers),
	}
	for _, l := range t.Manifest.Layers {
		e.Size += l.Size
	}
	return e
}

// storedLayer is one layer's bytes and the number of committed manifest
// slots referencing it (zero: staged or released, a cache).
type storedLayer struct {
	data   []byte
	refs   int
	onDisk bool // durable stores: the layer file has been written
}

// Store is the registry state, safe for concurrent use. A store opened
// with OpenDurable additionally journals every mutation to a
// write-ahead log before acknowledging it (see persist.go, wal.go).
type Store struct {
	mu          sync.RWMutex
	tags        map[string]taggedManifest // key: coll/name:tag
	layers      map[string]*storedLayer   // key: layer digest
	quarantined map[string]string         // layer digest -> reason
	// hints holds journaled hinted-handoff records, keyed by
	// (target, ref) — writes owed to down peers (see hints.go).
	hints map[string]Hint

	// pmu serializes mutations so the journal order matches the order
	// the in-memory maps were updated in; nil wal means in-memory only.
	pmu          sync.Mutex
	dir          string
	wal          *wal
	compactEvery int
	pending      int // mutations since the last compaction
}

// NewStore creates an empty in-memory registry store.
func NewStore() *Store {
	return &Store{
		tags:         map[string]taggedManifest{},
		layers:       map[string]*storedLayer{},
		quarantined:  map[string]string{},
		hints:        map[string]Hint{},
		compactEvery: defaultCompactEvery,
	}
}

func key(coll, name, tag string) string { return coll + "/" + name + ":" + tag }

// layerContentDigest is the content address of one encoded layer.
func layerContentDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Put stores a marshalled image (SCIF1 or SCIF2) the way a client push
// does: its layers are staged — a monolithic image becomes a single
// layer, which leaves its digest unchanged — and its manifest is
// committed. It returns the image digest.
func (s *Store) Put(coll, name, tag string, blob []byte) (string, error) {
	img, err := image.Unmarshal(blob)
	if err != nil {
		return "", fmt.Errorf("hub: rejecting malformed image: %w", err)
	}
	m, err := img.Manifest()
	if err != nil {
		return "", err
	}
	for _, l := range img.Layers {
		s.stage(l.Digest(), l.Bytes())
	}
	missing, err := s.PutManifest(coll, name, tag, m)
	if err != nil {
		return "", err
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("hub: staged layers %v dropped before the commit", missing)
	}
	return m.ImageDigest, nil
}

// PutLayer stages one encoded layer, verifying it decodes cleanly, and
// returns its content digest. The uploaded bytes replace whatever the
// store held under that digest, so re-uploading a quarantined layer
// repairs it once a manifest commit references it.
func (s *Store) PutLayer(data []byte) (string, error) {
	l, err := image.DecodeLayer(data) // copies data, validates the changeset
	if err != nil {
		return "", fmt.Errorf("hub: rejecting malformed layer: %w", err)
	}
	s.stage(l.Digest(), l.Bytes())
	return l.Digest(), nil
}

func (s *Store) stage(digest string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.layers[digest]; ok {
		l.data = data
		return
	}
	s.layers[digest] = &storedLayer{data: data}
}

// PutManifest commits m as coll/name:tag. Every layer it lists must be
// held with healthy bytes: absent layers, and layers whose bytes fail
// their digest, come back as missing (nothing is committed) for the
// client to upload. The layers must reassemble to m.ImageDigest.
// Committing the manifest a healthy tag already holds is a no-op; a tag
// with a quarantined layer is repaired by the commit.
func (s *Store) PutManifest(coll, name, tag string, m *image.Manifest) (missing []string, err error) {
	t := taggedManifest{Collection: coll, Container: name, Tag: tag, Manifest: m}
	s.mu.RLock()
	if old, ok := s.tags[t.key()]; ok && s.quarantineReasonLocked(old) == "" && sameManifest(old.Manifest, m) {
		s.mu.RUnlock()
		return nil, nil // idempotent re-push: verified when first committed
	}
	data := make([][]byte, len(m.Layers))
	for i, d := range m.Layers {
		if l, ok := s.layers[d.Digest]; ok {
			data[i] = l.data
		} else {
			missing = append(missing, d.Digest)
		}
	}
	s.mu.RUnlock()
	if len(missing) > 0 {
		return missing, nil
	}
	// Verify outside every lock: decoding and flattening is the costly
	// part of a push, and concurrent pushes should not queue behind it.
	layers := make([]*image.Layer, len(m.Layers))
	for i, d := range m.Layers {
		l, err := image.DecodeLayer(data[i])
		if err != nil || l.Digest() != d.Digest {
			missing = append(missing, d.Digest) // rotted since it was staged
			continue
		}
		if l.Size() != d.Size {
			return nil, fmt.Errorf("hub: manifest gives layer %s size %d, it has %d", d.Digest, d.Size, l.Size())
		}
		layers[i] = l
	}
	if len(missing) > 0 {
		return missing, nil
	}
	img, err := image.AssembleFromLayers(m.Config, layers)
	if err != nil {
		return nil, fmt.Errorf("hub: rejecting manifest: %w", err)
	}
	if err := img.VerifyDigest(m.ImageDigest); err != nil {
		return nil, fmt.Errorf("hub: rejecting manifest: %w", err)
	}

	s.pmu.Lock()
	defer s.pmu.Unlock()
	// Re-check under pmu, which compaction and quarantine also hold:
	// a layer may have been compacted away, or quarantined, since the
	// verification above.
	s.mu.RLock()
	for _, d := range m.Layers {
		l, held := s.layers[d.Digest]
		_, bad := s.quarantined[d.Digest]
		if !held || bad && layerContentDigest(l.data) != d.Digest {
			missing = append(missing, d.Digest)
		}
	}
	s.mu.RUnlock()
	if len(missing) > 0 {
		return missing, nil
	}
	if s.wal != nil {
		if err := s.persistLayers(m); err != nil {
			return nil, err
		}
		if err := s.wal.appendRecord(walRecord{Op: walPut, Image: &t}); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.setTagLocked(t.key(), &t)
	s.mu.Unlock()
	return nil, s.mutatedLocked()
}

func sameManifest(a, b *image.Manifest) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// Delete removes a tag, journaling the removal on durable stores and
// releasing its layer references. It reports whether the tag existed.
func (s *Store) Delete(coll, name, tag string) (bool, error) {
	t := taggedManifest{Collection: coll, Container: name, Tag: tag}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.mu.RLock()
	_, ok := s.tags[t.key()]
	s.mu.RUnlock()
	if !ok {
		return false, nil
	}
	if s.wal != nil {
		if err := s.wal.appendRecord(walRecord{Op: walDelete, Image: &t}); err != nil {
			return false, err
		}
	}
	s.mu.Lock()
	s.setTagLocked(t.key(), nil)
	s.mu.Unlock()
	return true, s.mutatedLocked()
}

// setTagLocked points k at t (nil removes k), moving layer references
// from the manifest k held to t's. Committing a manifest clears the
// quarantine of its layers: a commit only succeeds over healthy bytes.
// A quarantined layer whose last reference goes is dropped outright —
// rotten bytes are no use as a cache. Caller holds mu. During journal
// replay no layers are loaded yet, so only tags and quarantine marks
// move; loadLayers settles the references afterwards.
func (s *Store) setTagLocked(k string, t *taggedManifest) {
	old, had := s.tags[k]
	delete(s.tags, k)
	if t != nil {
		for _, d := range t.Manifest.Layers {
			if l, ok := s.layers[d.Digest]; ok {
				l.refs++
			}
			delete(s.quarantined, d.Digest)
		}
		s.tags[k] = *t
	}
	if !had {
		return
	}
	for _, d := range old.Manifest.Layers {
		l, ok := s.layers[d.Digest]
		if !ok {
			continue
		}
		l.refs--
		if _, bad := s.quarantined[d.Digest]; bad && l.refs == 0 {
			delete(s.quarantined, d.Digest)
			delete(s.layers, d.Digest)
		}
	}
}

// quarantineReasonLocked returns why t cannot be served — the reason
// the first quarantined layer of its manifest carries — or "".
func (s *Store) quarantineReasonLocked(t taggedManifest) string {
	for _, d := range t.Manifest.Layers {
		if reason, bad := s.quarantined[d.Digest]; bad {
			return reason
		}
	}
	return ""
}

// manifest returns a tag's entry and canonical manifest bytes, plus the
// quarantine reason when one of its layers is quarantined.
func (s *Store) manifest(coll, name, tag string) (e Entry, body []byte, reason string, ok bool) {
	s.mu.RLock()
	t, ok := s.tags[key(coll, name, tag)]
	if ok {
		reason = s.quarantineReasonLocked(t)
	}
	s.mu.RUnlock()
	if !ok {
		return Entry{}, nil, "", false
	}
	body, err := json.Marshal(t.Manifest)
	if err != nil {
		return Entry{}, nil, "", false
	}
	return t.entry(), body, reason, true
}

// QuarantineReason reports whether the entry is quarantined and why.
func (s *Store) QuarantineReason(coll, name, tag string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tags[key(coll, name, tag)]
	if !ok {
		return "", false
	}
	reason := s.quarantineReasonLocked(t)
	return reason, reason != ""
}

// List returns the entries of one collection, sorted by container then tag.
func (s *Store) List(coll string) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for _, t := range s.tags {
		if t.Collection == coll {
			e := t.entry()
			e.Quarantined = s.quarantineReasonLocked(t) != ""
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Container != out[j].Container {
			return out[i].Container < out[j].Container
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// Collections lists collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := map[string]bool{}
	for _, t := range s.tags {
		set[t.Collection] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// layer returns the encoded bytes of one held layer (immutable; callers
// must not modify them) and its quarantine reason, if any.
func (s *Store) layer(digest string) (data []byte, reason string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.layers[digest]
	if !ok {
		return nil, "", false
	}
	return l.data, s.quarantined[digest], true
}

// MissingLayers reports which of the given digests a push must upload:
// those the store does not hold, and those it holds quarantined.
// Order is preserved.
func (s *Store) MissingLayers(digests []string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	missing := []string{}
	for _, d := range digests {
		_, held := s.layers[d]
		_, bad := s.quarantined[d]
		if !held || bad {
			missing = append(missing, d)
		}
	}
	return missing
}

// LayerCount returns the number of distinct layers committed manifests
// reference.
func (s *Store) LayerCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, l := range s.layers {
		if l.refs > 0 {
			n++
		}
	}
	return n
}

// EntryCount returns the number of stored entries across all collections.
func (s *Store) EntryCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tags)
}

// QuarantinedCount returns the number of quarantined layers.
func (s *Store) QuarantinedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.quarantined)
}
