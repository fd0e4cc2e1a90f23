package hub

import (
	"testing"
)

// FuzzHintJournalRecords hardens the journal decoder against arbitrary
// bytes standing where hinted-handoff records should be: whatever the
// input, decoding must not panic, must never claim more good bytes than
// exist, and every record it does accept must replay cleanly and
// re-encode into a journal that decodes back to the same records (the
// longest-valid-prefix contract). Seed corpus lives under
// testdata/fuzz/FuzzHintJournalRecords.
func FuzzHintJournalRecords(f *testing.F) {
	mustEncode := func(rec walRecord) []byte {
		buf, err := encodeWALRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	add := mustEncode(walRecord{Seq: 1, Op: walHintAdd,
		Hint: &Hint{Target: "b", Collection: "coll", Container: "pepa", Tag: "latest", Digest: "sha256:aaa"}})
	ack := mustEncode(walRecord{Seq: 2, Op: walHintAck,
		Hint: &Hint{Target: "b", Collection: "coll", Container: "pepa", Tag: "latest", Digest: "sha256:aaa"}})
	f.Add(append(append([]byte{}, add...), ack...)) // well-formed add+ack
	f.Add(add[:len(add)/2])                         // torn mid-record
	f.Add([]byte("not a journal at all"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // zero-length frame

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, torn := decodeWALRecords(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0, %d]", goodLen, len(data))
		}
		if !torn && goodLen != len(data) {
			t.Fatalf("clean decode consumed %d of %d bytes", goodLen, len(data))
		}
		// Every accepted hint record must replay without panicking, on an
		// empty store and on one already holding the slot.
		s := NewStore()
		s.hints["b|coll/pepa:latest"] = Hint{Target: "b", Collection: "coll", Container: "pepa", Tag: "latest", Digest: "sha256:aaa"}
		for _, rec := range recs {
			if rec.Op == walHintAdd || rec.Op == walHintAck {
				s.applyWALRecord(rec)
			}
		}
		// Round trip: re-encoding the accepted records yields a journal
		// that decodes cleanly to the same count.
		var out []byte
		for _, rec := range recs {
			buf, err := encodeWALRecord(rec)
			if err != nil {
				t.Fatalf("re-encoding accepted record: %v", err)
			}
			out = append(out, buf...)
		}
		recs2, n2, torn2 := decodeWALRecords(out)
		if torn2 || n2 != len(out) || len(recs2) != len(recs) {
			t.Fatalf("re-encoded journal decode = (%d recs, %d bytes, torn %v), want (%d, %d, false)",
				len(recs2), n2, torn2, len(recs), len(out))
		}
	})
}
