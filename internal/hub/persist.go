package hub

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/fsatomic"
	"repro/internal/image"
)

// Persistence: a durable store's directory holds one file per committed
// layer (<hex>.layer, content-addressed and written once), a snapshot
// (index.json: every tag's manifest, the quarantined layers and the
// hinted-handoff records) and the write-ahead journal of mutations made
// since that snapshot (journal.wal, see wal.go). Opening loads the
// snapshot, replays the journal on top (truncating any torn tail), then
// reads and re-verifies the file of every referenced layer; a missing
// or corrupt file quarantines its layer instead of failing the open.
// Compaction rewrites the snapshot, resets the journal and removes the
// layers no manifest references, from memory and from disk.

// indexFile is the on-disk snapshot name.
const indexFile = "index.json"

// defaultCompactEvery is how many mutations a store takes between
// compactions unless DurableOptions says otherwise.
const defaultCompactEvery = 128

// snapshot is the content of indexFile.
type snapshot struct {
	Tags        []taggedManifest  `json:"tags"`
	Quarantined map[string]string `json:"quarantined,omitempty"` // layer digest -> reason
	Hints       []Hint            `json:"hints,omitempty"`
}

// DurableOptions tunes OpenDurable. Zero fields use defaults.
type DurableOptions struct {
	// CompactEvery compacts the journal into a snapshot after this many
	// records (default 128; negative disables auto-compaction).
	CompactEvery int
}

// OpenReport summarizes what OpenDurable recovered.
type OpenReport struct {
	SnapshotEntries int   // tags restored from index.json
	JournalRecords  int   // journal records replayed on top
	TornBytes       int64 // torn journal tail bytes truncated
	Quarantined     int   // layers quarantined after recovery
}

// OpenDurable opens (creating if needed) a durable store rooted at dir:
// the snapshot is loaded, the journal is replayed on top (truncating any
// torn tail), and every subsequent mutation is journaled with an fsync
// before it is acknowledged. Layer files that fail their digest check
// during recovery are quarantined (served as 410, repairable by
// re-push) rather than aborting startup — a self-healing open.
func OpenDurable(dir string, opts DurableOptions) (*Store, OpenReport, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, OpenReport{}, err
	}
	var report OpenReport
	s := NewStore()
	n, err := s.loadSnapshot(dir)
	if err != nil {
		return nil, OpenReport{}, err
	}
	report.SnapshotEntries = n
	w, replay, err := openWAL(dir)
	if err != nil {
		return nil, OpenReport{}, err
	}
	for _, rec := range replay.Records {
		s.applyWALRecord(rec)
	}
	if err := s.loadLayers(dir); err != nil {
		w.close()
		return nil, OpenReport{}, err
	}
	report.JournalRecords = len(replay.Records)
	report.TornBytes = replay.TornBytes
	report.Quarantined = len(s.quarantined)
	s.dir = dir
	s.wal = w
	s.compactEvery = opts.CompactEvery
	s.pending = w.records
	// A long journal at open means the last run never compacted; fold it
	// into the snapshot now so replay stays cheap.
	s.pmu.Lock()
	err = s.compactIfDueLocked()
	s.pmu.Unlock()
	if err != nil {
		w.close()
		return nil, OpenReport{}, err
	}
	return s, report, nil
}

// Close flushes the store's durability state: an in-progress journal is
// compacted into a snapshot and closed. On a purely in-memory store it
// is a no-op. Safe to call once; the store must not be mutated after.
func (s *Store) Close() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.wal == nil {
		return nil
	}
	compactErr := s.compactLocked()
	closeErr := s.wal.close()
	s.wal = nil
	if compactErr != nil {
		return compactErr
	}
	return closeErr
}

// Durable reports whether the store journals its mutations.
func (s *Store) Durable() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.wal != nil
}

// Compact removes the layers no manifest references and, on a durable
// store, folds the journal into a fresh snapshot.
func (s *Store) Compact() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.compactLocked()
}

// mutatedLocked counts one acknowledged mutation and compacts once
// compactEvery of them have accumulated. Caller holds pmu.
func (s *Store) mutatedLocked() error {
	s.pending++
	return s.compactIfDueLocked()
}

func (s *Store) compactIfDueLocked() error {
	if s.compactEvery > 0 && s.pending >= s.compactEvery {
		return s.compactLocked()
	}
	return nil
}

// compactLocked drops unreferenced layers, then on durable stores
// writes a snapshot, resets the journal and deletes the layer files the
// snapshot no longer references. Caller holds pmu. Crash ordering: the
// snapshot replaces index.json atomically first; a crash before the
// journal reset merely replays records the snapshot already contains,
// which is idempotent.
func (s *Store) compactLocked() error {
	s.mu.Lock()
	for d, l := range s.layers {
		if l.refs == 0 {
			delete(s.layers, d)
		}
	}
	s.mu.Unlock()
	s.pending = 0
	if s.wal == nil {
		return nil
	}
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.gcLayerFiles()
	return nil
}

// gcLayerFiles removes layer files no held layer accounts for (best
// effort — a leaked file wastes space but harms nothing).
func (s *Store) gcLayerFiles() {
	files, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, f := range files {
		hexDigest, ok := strings.CutSuffix(f.Name(), layerFileExt)
		if !ok {
			continue
		}
		if _, held := s.layers["sha256:"+hexDigest]; !held {
			os.Remove(filepath.Join(s.dir, f.Name()))
		}
	}
}

// persistLayers writes the files of m's layers that are not yet on
// disk, or whose on-disk copy may be the corrupt one (quarantined
// layers). It runs before the put record is journaled, so replay only
// ever sees manifests whose layers reached the disk. Caller holds pmu.
func (s *Store) persistLayers(m *image.Manifest) error {
	for _, d := range m.Layers {
		s.mu.RLock()
		l := s.layers[d.Digest]
		_, bad := s.quarantined[d.Digest]
		data, onDisk := l.data, l.onDisk
		s.mu.RUnlock()
		if onDisk && !bad {
			continue
		}
		name, err := layerFileName(d.Digest)
		if err != nil {
			return err
		}
		if err := fsatomic.WriteFile(filepath.Join(s.dir, name), data, 0o644); err != nil {
			return fmt.Errorf("hub: saving layer %s: %w", d.Digest, err)
		}
		s.mu.Lock()
		l.onDisk = true
		s.mu.Unlock()
	}
	return nil
}

// applyWALRecord applies one replayed journal record to the in-memory
// state (no re-journaling). Layer bytes are not touched here: loadLayers
// reads them once replay has settled which layers are referenced.
func (s *Store) applyWALRecord(rec walRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.Op {
	case walPut:
		if rec.Image != nil && rec.Image.Manifest != nil {
			s.setTagLocked(rec.Image.key(), rec.Image)
		}
	case walDelete:
		if rec.Image != nil {
			s.setTagLocked(rec.Image.key(), nil)
		}
	case walQuarantine:
		if rec.Layer != "" {
			s.quarantined[rec.Layer] = rec.Reason
		}
	case walHintAdd:
		if rec.Hint != nil && rec.Hint.validate() == nil {
			s.hints[rec.Hint.hintKey()] = *rec.Hint
		}
	case walHintAck:
		if rec.Hint != nil {
			if existing, ok := s.hints[rec.Hint.hintKey()]; ok && existing.Digest == rec.Hint.Digest {
				delete(s.hints, rec.Hint.hintKey())
			}
		}
	}
}

// writeSnapshot writes the index atomically: tags, quarantine marks and
// hints, each in a deterministic order.
func (s *Store) writeSnapshot() error {
	s.mu.RLock()
	snap := snapshot{Quarantined: map[string]string{}}
	for _, t := range s.tags {
		snap.Tags = append(snap.Tags, t)
	}
	for d, reason := range s.quarantined {
		snap.Quarantined[d] = reason
	}
	for _, h := range s.hints {
		snap.Hints = append(snap.Hints, h)
	}
	s.mu.RUnlock()
	sort.Slice(snap.Tags, func(i, j int) bool { return snap.Tags[i].key() < snap.Tags[j].key() })
	sort.Slice(snap.Hints, func(i, j int) bool { return snap.Hints[i].hintKey() < snap.Hints[j].hintKey() })
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	// fsatomic (tmp + fsync + rename + dir sync) guarantees a crash mid-
	// write leaves either the previous index or the new one, never a
	// torn file; layer files were made durable before the records that
	// reference them.
	return fsatomic.WriteFile(filepath.Join(s.dir, indexFile), data, 0o644)
}

// loadSnapshot restores dir's index into the empty store s, returning
// the number of tags it held (0 when there is no index yet).
func (s *Store) loadSnapshot(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("hub: reading index: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("hub: corrupt index: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range snap.Tags {
		if snap.Tags[i].Manifest == nil {
			return 0, fmt.Errorf("hub: corrupt index: %s has no manifest", snap.Tags[i].key())
		}
		s.setTagLocked(snap.Tags[i].key(), &snap.Tags[i])
	}
	for d, reason := range snap.Quarantined {
		s.quarantined[d] = reason
	}
	// Hints are recoverable metadata (a peer re-detecting a down owner
	// recreates them), so an invalid one is skipped, never fatal.
	for _, h := range snap.Hints {
		if h.validate() == nil {
			s.hints[h.hintKey()] = h
		}
	}
	return len(snap.Tags), nil
}

// loadLayers reads and re-verifies the file of every layer the tags
// reference, settling reference counts; a missing or corrupt file
// quarantines its layer. Quarantine marks of layers nothing references
// any more are dropped, as a live store drops them on release.
func (s *Store) loadLayers(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := map[string]int{}
	for _, t := range s.tags {
		for _, d := range t.Manifest.Layers {
			refs[d.Digest]++
		}
	}
	for d := range s.quarantined {
		if refs[d] == 0 {
			delete(s.quarantined, d)
		}
	}
	for d, n := range refs {
		name, err := layerFileName(d)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || layerContentDigest(data) != d {
			if _, already := s.quarantined[d]; !already {
				s.quarantined[d] = "layer file failed digest verification"
			}
		}
		s.layers[d] = &storedLayer{data: data, refs: n, onDisk: err == nil}
	}
	return nil
}

// layerFileExt names layer files: <hex digest>.layer.
const layerFileExt = ".layer"

var layerDigestRE = regexp.MustCompile(`^sha256:[0-9a-f]{64}$`)

// layerFileName maps a layer digest to its file name, refusing anything
// that is not a well-formed digest (a path in disguise).
func layerFileName(digest string) (string, error) {
	if !layerDigestRE.MatchString(digest) {
		return "", fmt.Errorf("hub: suspicious layer digest %q", digest)
	}
	return strings.TrimPrefix(digest, "sha256:") + layerFileExt, nil
}
