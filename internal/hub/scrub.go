package hub

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Integrity scrubbing: a background loop re-hashes every referenced
// layer on a jittered interval and quarantines layers whose bytes no
// longer match their digest (bit-rot, torn writes that slipped past
// recovery, hostile edits). Every tag listing a quarantined layer is
// served as 410 Gone with a typed error until a push uploads the layer
// again; on durable stores the quarantine is journaled so it survives
// restarts. Metrics land in the hub_scrub_* family.

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Checked     int      // layers whose bytes were re-hashed
	Corrupt     int      // layers newly quarantined this pass
	Quarantined []string // digests of the layers newly quarantined
	Skipped     int      // layers already in quarantine (not re-checked)
}

// ScrubOnce re-hashes every referenced layer now, quarantining
// mismatches. It is deterministic given the store contents, so chaos
// tests can assert exactly which layers a corruption flips. reg may be
// nil.
func (s *Store) ScrubOnce(reg *obs.Registry) ScrubReport {
	s.mu.RLock()
	digests := make([]string, 0, len(s.layers))
	for d, l := range s.layers {
		if l.refs > 0 {
			digests = append(digests, d)
		}
	}
	s.mu.RUnlock()
	sort.Strings(digests)

	var report ScrubReport
	for _, d := range digests {
		s.mu.RLock()
		l, ok := s.layers[d]
		var data []byte
		if ok {
			data = l.data
		}
		_, already := s.quarantined[d]
		s.mu.RUnlock()
		if !ok {
			continue // released and compacted since the digest snapshot
		}
		if already {
			report.Skipped++
			continue
		}
		report.Checked++
		reg.Inc("hub_scrub_blobs_checked_total")
		if layerContentDigest(data) == d {
			continue
		}
		s.quarantine(d, "stored bytes failed digest verification")
		report.Corrupt++
		report.Quarantined = append(report.Quarantined, d)
		reg.Inc("hub_scrub_corrupt_total")
	}
	reg.Inc("hub_scrub_runs_total")
	reg.Set("hub_scrub_quarantined", float64(s.QuarantinedCount()))
	return report
}

// FlipBit flips one bit of the layer bytes stored for (coll, name, tag)
// in place — the storage-side analogue of faultinject's wire-level
// corruption, for chaos tests that simulate bit-rot the scrubber must
// catch. The bit index wraps around the concatenation of the tag's
// layers, so any value picks a valid bit deterministically. Like real
// rot, the mutation is invisible until the next scrub or verified read;
// it bypasses the journal and the layer files on durable stores (rot is
// not a mutation the WAL saw). Returns false for an unknown or empty
// entry.
func (s *Store) FlipBit(coll, name, tag string, bit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tags[key(coll, name, tag)]
	if !ok {
		return false
	}
	total := 0
	for _, d := range t.Manifest.Layers {
		total += len(s.layers[d.Digest].data) * 8
	}
	if total == 0 {
		return false
	}
	bit %= total
	if bit < 0 {
		bit += total
	}
	for _, d := range t.Manifest.Layers {
		l := s.layers[d.Digest]
		if bit >= len(l.data)*8 {
			bit -= len(l.data) * 8
			continue
		}
		// Mutate a copy: readers may hold the current slice.
		mutated := append([]byte(nil), l.data...)
		mutated[bit/8] ^= 1 << (bit % 8)
		l.data = mutated
		break
	}
	return true
}

// quarantine marks one layer known-bad, journaling the transition on
// durable stores (with its reason) so it survives restarts. The corrupt
// bytes are kept in memory for forensics; they are never served.
func (s *Store) quarantine(digest, reason string) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.wal != nil {
		// Journal failures must not mask the quarantine: the in-memory
		// mark still protects readers this run.
		s.wal.appendRecord(walRecord{Op: walQuarantine, Layer: digest, Reason: reason})
	}
	s.mu.Lock()
	if l, ok := s.layers[digest]; ok && l.refs > 0 {
		s.quarantined[digest] = reason
	}
	s.mu.Unlock()
	s.mutatedLocked()
}

// Scrubber runs ScrubOnce on a jittered interval in the background.
type Scrubber struct {
	store    *Store
	interval time.Duration
	jitter   *rng.Source
	reg      *obs.Registry
	stop     chan struct{}
	done     chan struct{}
}

// StartScrubber begins background integrity scrubbing of store every
// interval, scaled per cycle by a deterministic jitter factor in
// [0.75, 1.25) from seed so a fleet of hubs does not scrub in lockstep.
// reg may be nil. Stop the scrubber with Stop.
func StartScrubber(store *Store, interval time.Duration, seed uint64, reg *obs.Registry) *Scrubber {
	if interval <= 0 {
		interval = 5 * time.Minute
	}
	if seed == 0 {
		seed = 1
	}
	sc := &Scrubber{
		store: store, interval: interval, jitter: rng.New(seed), reg: reg,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go sc.run()
	return sc
}

func (sc *Scrubber) run() {
	defer close(sc.done)
	for {
		d := sc.nextDelay()
		timer := time.NewTimer(d)
		select {
		case <-sc.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		sc.store.ScrubOnce(sc.reg)
	}
}

// nextDelay returns the jittered wait before the next pass.
func (sc *Scrubber) nextDelay() time.Duration {
	u := sc.jitter.Float64()
	return time.Duration(float64(sc.interval) * (0.75 + 0.5*u))
}

// Stop halts the scrub loop and waits for an in-progress pass to end.
func (sc *Scrubber) Stop() {
	close(sc.stop)
	<-sc.done
}

// EnableScrubbing attaches a background scrubber to the server's store;
// it is stopped by Shutdown/Close. Call before Listen.
func (s *Server) EnableScrubbing(interval time.Duration, seed uint64) {
	s.scrubber = StartScrubber(s.Store, interval, seed, s.obs)
}
