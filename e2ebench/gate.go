package main

import (
	"fmt"
	"sort"
	"time"
)

// Benchmark hosts are often virtual machines that share their physical
// CPUs with other guests, and for tens of seconds at a time the
// hypervisor may give a large share of them away (steal). Ops timed then
// run up to 40% slower, which is the host, not the program. So the timed
// phase is cut into one-second slices, each classified by the share of
// the CPU time the guest's vCPUs were runnable that was stolen
// (/proc/stat). Every op counts towards attempted and failed, but
// timings, CPU and throughput come from the quiet slices only. A loop
// extends its phase, up to a cap, to collect the full length of quiet
// slices; if the cap comes first, the least contended of the other
// slices make up the rest and the run is reported as contended.

const (
	sliceLen = time.Second
	// maxStolen is the stolen share above which a slice is contended; a
	// quiet 2-core guest steals under 3% of the runnable time.
	maxStolen = 0.05
	// closedCap is how many times its length a closed loop's phase may
	// grow to wait out contention: bursts of up to 13.5 s in a 45 s
	// phase, while a run that meets contention throughout still ends in
	// about 60 s.
	closedCap = 1.3
)

// phaseCap bounds a timed phase that keeps meeting a contended host.
func phaseCap(seconds float64) time.Duration {
	return min(max(time.Duration(closedCap*seconds*float64(time.Second)), 10*time.Second), 120*time.Second)
}

// slice is one slice of a timed phase.
type slice struct {
	lat    []float64 // ms of the ops it holds
	wall   float64   // s the ops took, set-ups excluded
	cpu    float64   // s of CPU charged to the ops, set-ups excluded
	stolen float64
	// Set-ups run in the slice: each one's wall time in s, and their
	// total wall and CPU time, which wall and cpu leave out.
	setups              []float64
	setupWall, setupCPU float64
}

// gate cuts a timed phase into slices and classifies them.
type gate struct {
	maxStolen float64
	cpu       func() (float64, error)
	start     time.Time
	slices    []slice
	cur       slice
	at        time.Time
	cpu0      float64
	ticks0    hostTicks
}

func newGate(cpu func() (float64, error), maxStolen float64) (*gate, error) {
	g := &gate{cpu: cpu, maxStolen: maxStolen}
	if err := g.open(); err != nil {
		return nil, err
	}
	g.start = g.at
	return g, nil
}

func (g *gate) open() error {
	c, err := g.cpu()
	if err != nil {
		return err
	}
	tk, err := readHostTicks()
	if err != nil {
		return err
	}
	g.cur, g.at, g.cpu0, g.ticks0 = slice{}, time.Now(), c, tk
	return nil
}

// due reports whether the current slice has run its length.
func (g *gate) due() bool { return time.Since(g.at) >= sliceLen }

func (g *gate) elapsed() time.Duration { return time.Since(g.start) }

// record adds one op's latency to the current slice.
func (g *gate) record(ms float64) { g.cur.lat = append(g.cur.lat, ms) }

// recordSetup adds one set-up's wall and CPU seconds to the current slice.
func (g *gate) recordSetup(wall, cpu float64) {
	g.cur.setups = append(g.cur.setups, wall)
	g.cur.setupWall += wall
	g.cur.setupCPU += cpu
}

// closeSlice ends the current slice and opens the next.
func (g *gate) closeSlice() error {
	c, err := g.cpu()
	if err != nil {
		return err
	}
	tk, err := readHostTicks()
	if err != nil {
		return err
	}
	s := g.cur
	s.wall = time.Since(g.at).Seconds() - s.setupWall
	s.cpu = c - g.cpu0 - s.setupCPU
	s.stolen = stolenShare(g.ticks0, tk)
	g.slices = append(g.slices, s)
	return g.open()
}

func (g *gate) quiet(s slice) bool { return s.stolen <= g.maxStolen }

// length is how long the slice lasted, set-ups included.
func (s slice) length() float64 { return s.wall + s.setupWall }

// quietTotals sums the quiet slices.
func (g *gate) quietTotals() (wall float64, ops int) {
	for _, s := range g.slices {
		if g.quiet(s) {
			wall += s.length()
			ops += len(s.lat)
		}
	}
	return wall, ops
}

// enough reports whether the quiet slices hold a full phase.
func (g *gate) enough(seconds float64) bool {
	wall, ops := g.quietTotals()
	return wall >= seconds && ops >= minOps
}

// finish fills t from the quiet slices. When they hold fewer than
// minOps ops or less than the phase, the least contended of the other
// slices are added until they do (or none is left).
func (g *gate) finish(seconds float64, t *timed) {
	order := make([]int, len(g.slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.slices[order[a]].stolen < g.slices[order[b]].stolen })
	used := make([]bool, len(g.slices))
	var wall float64
	ops, quiet, extra := 0, 0, 0
	var stolen []float64
	for _, i := range order {
		s := g.slices[i]
		stolen = append(stolen, s.stolen)
		if g.quiet(s) {
			quiet++
		} else if wall >= seconds && ops >= minOps {
			continue
		} else {
			extra++
		}
		used[i] = true
		wall += s.length()
		ops += len(s.lat)
	}
	for i, s := range g.slices {
		if used[i] {
			t.lat = append(t.lat, s.lat...)
			t.setup = append(t.setup, s.setups...)
			t.wall += s.wall
			t.cpu += s.cpu
		}
	}
	if t.diag == nil {
		t.diag = map[string]float64{}
	}
	t.diag["host.quiet_slices"] = float64(quiet)
	t.diag["host.slices"] = float64(len(g.slices))
	t.diag["host.stolen_p50"] = median(stolen)
	if extra > 0 {
		t.notes = append(t.notes, fmt.Sprintf("host contended: %d of %d slices quiet; timings add the %d least contended others", quiet, len(g.slices), extra))
	}
}
