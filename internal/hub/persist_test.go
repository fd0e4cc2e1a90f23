package hub

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The snapshot tests: a durable store writes its snapshot (index.json)
// when it compacts — on Close, on Compact, or every CompactEvery
// mutations — and OpenDurable loads it back.

// openEmpty opens a fresh durable store that never compacts on its own.
func openEmpty(t *testing.T, dir string) *Store {
	t.Helper()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := openEmpty(t, dir)
	for _, spec := range []struct{ coll, name, tag, payload string }{
		{"pepa-containers", "pepa", "latest", "solver-v1"},
		{"pepa-containers", "gpa", "latest", "analyser"},
		{"other", "tool", "v2", "x"},
	} {
		if _, err := store.Put(spec.coll, spec.name, spec.tag, mustBlob(t, testImage(spec.name, spec.tag, spec.payload))); err != nil {
			t.Fatal(err)
		}
	}
	_, origDigest, _ := storedImage(t, store, "pepa-containers", "pepa", "latest")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	back, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if report.SnapshotEntries != 3 || report.JournalRecords != 0 {
		t.Errorf("report = %+v, want 3 snapshot entries and an empty journal", report)
	}
	if got := back.Collections(); len(got) != 2 {
		t.Fatalf("collections = %v", got)
	}
	img, digest, ok := storedImage(t, back, "pepa-containers", "pepa", "latest")
	if !ok || img == nil {
		t.Fatal("pepa image lost")
	}
	if digest != origDigest {
		t.Errorf("digest changed: %s vs %s", digest, origDigest)
	}
}

func TestSaveIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	store := openEmpty(t, dir)
	defer store.Close()
	store.Put("c", "a", "1", mustBlob(t, testImage("a", "1", "x")))
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(filepath.Join(dir, indexFile))
	if string(first) != string(second) {
		t.Error("repeated compaction changed the index")
	}
}

// TestLoadDetectsCorruption: a layer file rotted on disk is caught by
// the digest check on open and quarantines the entries listing it.
func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	store := openEmpty(t, dir)
	store.Put("c", "a", "1", mustBlob(t, testImage("a", "1", "payload")))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+layerFileExt))
	if err != nil || len(files) != 1 {
		t.Fatalf("layer files = %v, %v; want exactly one", files, err)
	}
	data, _ := os.ReadFile(files[0])
	data[len(data)-1] ^= 0xFF
	os.WriteFile(files[0], data, 0o644)

	back, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if report.Quarantined != 1 {
		t.Errorf("report.Quarantined = %d, want 1", report.Quarantined)
	}
	if _, ok := back.QuarantineReason("c", "a", "1"); !ok {
		t.Error("entry over a corrupt layer file not quarantined")
	}
	if _, _, ok := storedImage(t, back, "c", "a", "1"); ok {
		t.Error("corrupt layer served")
	}
}

func TestLoadRejectsPathTraversal(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, indexFile), []byte(`{"tags":[{"collection":"c","container":"a","tag":"1",
		"manifest":{"schemaVersion":2,"config":{"name":"a","tag":"1","baseRef":"x"},
		"layers":[{"digest":"../evil","size":1}],"imageDigest":"sha256:x"}}]}`), 0o644)
	if _, _, err := OpenDurable(dir, DurableOptions{}); err == nil || !strings.Contains(err.Error(), "suspicious layer digest") {
		t.Errorf("err = %v", err)
	}
}

func TestLoadOrNew(t *testing.T) {
	dir := t.TempDir()
	s := openEmpty(t, dir)
	if len(s.Collections()) != 0 {
		t.Error("fresh store not empty")
	}
	s.Put("c", "a", "1", mustBlob(t, testImage("a", "1", "x")))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openEmpty(t, dir)
	defer s2.Close()
	if len(s2.Collections()) != 1 {
		t.Error("reopened store empty")
	}
}

// TestLoadMissingIndex: a directory without a snapshot opens as an
// empty store rather than failing.
func TestLoadMissingIndex(t *testing.T) {
	s, report, err := OpenDurable(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if report.SnapshotEntries != 0 || s.EntryCount() != 0 {
		t.Errorf("report = %+v, entries = %d; want an empty store", report, s.EntryCount())
	}
}
