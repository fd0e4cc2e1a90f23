package hub

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/fsatomic"
)

// Write-ahead journal: every store mutation (manifest put, delete,
// layer quarantine, hint add/ack) appends one fsynced, CRC-framed record
// to journal.wal before it is acknowledged, so a crash at any instant
// loses at most the record being written — and that record is
// detectably torn, not silently corrupt. On open the journal is
// replayed on top of the last snapshot (index.json); a torn or garbage
// tail is truncated back to the last whole record. Compaction rewrites
// the snapshot and resets the journal (see persist.go).

// walFileName is the journal's name within the state directory.
const walFileName = "journal.wal"

// walMagic opens every journal file; a file that does not start with it
// is treated as wholly torn (zero records).
var walMagic = []byte("SHWAL1\n")

// walMaxRecord bounds a single record's payload. Records carry manifests
// and metadata only (layer bytes live in content-addressed files), so
// anything larger is garbage, not a record.
const walMaxRecord = 1 << 20

// walOp enumerates journaled mutations.
type walOp string

const (
	walPut        walOp = "put"
	walDelete     walOp = "delete"
	walQuarantine walOp = "quarantine"
	// walHintAdd / walHintAck journal hinted-handoff records: a write
	// owed to a down peer, and its removal once delivered (see hints.go).
	walHintAdd walOp = "hint-add"
	walHintAck walOp = "hint-ack"
)

// walRecord is one journal entry. A put carries the tag and the
// manifest it now points at (whose layer files were written and fsynced
// before the record); a delete carries just the tag; a quarantine names
// the layer and why; hint records carry the hint.
type walRecord struct {
	Seq    uint64          `json:"seq"`
	Op     walOp           `json:"op"`
	Image  *taggedManifest `json:"image,omitempty"`
	Layer  string          `json:"layer,omitempty"`
	Reason string          `json:"reason,omitempty"`
	Hint   *Hint           `json:"hint,omitempty"`
}

// encodeWALRecord frames a record as
// [uint32 payload length][uint32 IEEE CRC of payload][payload JSON].
func encodeWALRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("hub: encoding journal record: %w", err)
	}
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf, nil
}

// decodeWALRecords parses journal bytes (after the magic) into the
// longest valid prefix of records. It returns the records, the byte
// offset just past the last whole record (relative to the start of
// data), and whether a torn/garbage tail was detected. It never fails:
// any undecodable suffix is, by definition, the torn tail.
func decodeWALRecords(data []byte) (recs []walRecord, goodLen int, torn bool) {
	off := 0
	for {
		if len(data)-off < 8 {
			return recs, off, len(data)-off > 0
		}
		n := binary.BigEndian.Uint32(data[off : off+4])
		if n == 0 || n > walMaxRecord || int(n) > len(data)-off-8 {
			return recs, off, true
		}
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, true
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// CRC-valid but structurally invalid: treat as torn — replay
			// must never apply a record it cannot fully interpret.
			return recs, off, true
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
}

// wal is an open journal bound to a state directory.
type wal struct {
	file    *fsatomic.AppendFile
	seq     uint64 // last sequence number written
	records int    // records appended since the last compaction
}

// walReplay is the outcome of opening a journal: the decoded records and
// bookkeeping about any torn tail that was discarded.
type walReplay struct {
	Records   []walRecord
	TornBytes int64 // bytes truncated from the tail (0 = clean)
}

// openWAL opens (creating if needed) the journal in dir, replays its
// records, and truncates any torn tail so subsequent appends extend a
// well-formed file. The caller applies the returned records on top of
// the snapshot.
func openWAL(dir string) (*wal, walReplay, error) {
	path := dir + string(os.PathSeparator) + walFileName
	// Read existing contents before opening for append.
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, walReplay{}, fmt.Errorf("hub: reading journal: %w", err)
	}
	f, err := fsatomic.OpenAppend(path)
	if err != nil {
		return nil, walReplay{}, err
	}
	w := &wal{file: f}
	if len(raw) == 0 {
		if err := f.Append(walMagic); err != nil {
			f.Close()
			return nil, walReplay{}, err
		}
		return w, walReplay{}, nil
	}
	var replay walReplay
	if len(raw) < len(walMagic) || string(raw[:len(walMagic)]) != string(walMagic) {
		// Unrecognizable journal: keep zero records and start fresh. The
		// snapshot still loads, so this degrades to losing the un-
		// compacted tail rather than refusing to start.
		replay.TornBytes = int64(len(raw))
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, walReplay{}, err
		}
		if err := f.Append(walMagic); err != nil {
			f.Close()
			return nil, walReplay{}, err
		}
		return w, replay, nil
	}
	recs, goodLen, torn := decodeWALRecords(raw[len(walMagic):])
	replay.Records = recs
	w.records = len(recs)
	for _, r := range recs {
		if r.Seq > w.seq {
			w.seq = r.Seq
		}
	}
	if torn {
		keep := int64(len(walMagic) + goodLen)
		replay.TornBytes = int64(len(raw)) - keep
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, walReplay{}, err
		}
	}
	return w, replay, nil
}

// appendRecord journals one record durably.
func (w *wal) appendRecord(rec walRecord) error {
	w.seq++
	rec.Seq = w.seq
	buf, err := encodeWALRecord(rec)
	if err != nil {
		return err
	}
	if err := w.file.Append(buf); err != nil {
		return err
	}
	w.records++
	return nil
}

// reset truncates the journal back to its magic header (after a
// snapshot has made its records redundant).
func (w *wal) reset() error {
	if err := w.file.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	w.records = 0
	return nil
}

// close flushes and closes the journal file.
func (w *wal) close() error {
	if w.file == nil {
		return nil
	}
	err := w.file.Close()
	w.file = nil
	return err
}
