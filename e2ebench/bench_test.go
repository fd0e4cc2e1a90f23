package main

import (
	"math"
	"os"
	"os/exec"
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// A test binary re-run with burnEnv set burns CPU and exits: the child
// whose CPU the closed loop must charge to its op.
const burnEnv = "E2EBENCH_TEST_BURN"

func TestMain(m *testing.M) {
	if os.Getenv(burnEnv) != "" {
		burn(30_000_000)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// burn spins on the CPU for a fixed amount of work (about 30 ms per
// 30M rounds), however much of the wall time the host steals.
func burn(rounds int) {
	x := uint64(1)
	for i := 0; i < rounds; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibSink += x
}

func TestPercentileRule(t *testing.T) {
	if got := minSamplesFor(0.9); got != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if tailOK(99, 0.9) || !tailOK(100, 0.9) {
		t.Fatal("p90 needs exactly 100 samples for 10 beyond it")
	}
	if got := minSamplesFor(0.99); got != 1000 {
		t.Fatalf("minSamplesFor(0.99) = %d, want 1000", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if p := percentile(xs, 0.9); p != 90 {
		t.Fatalf("p90 of 1..100 = %g, want 90", p)
	}
	if b := beyond(100, 0.9); b != 10 {
		t.Fatalf("%d samples beyond p90 of 100, want 10", b)
	}
	// A closed loop whose phase is over before minOps ops (15 ms ops, a
	// zero-second phase) keeps going until it has them, so the p90 it
	// reports always has minTail samples beyond it.
	var tm timed
	err := closedLoop(0, ownCPUErr, func(int) error {
		time.Sleep(15 * time.Millisecond)
		return nil
	}, nil, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if !tailOK(len(tm.lat), 0.9) {
		t.Fatalf("closed loop timed %d ops, want at least %d", len(tm.lat), minOps)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, err := quartiles(xs)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3, _ := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %g, %g; want 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	if q1, q3, _ := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); q1 != 1.75 || q3 != 5.25 {
		t.Fatalf("quartiles = %g, %g; want 1.75, 5.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
	if sp, _ := spread(xs); sp != (8.25-2.75)/5.5 {
		t.Fatalf("spread = %g", sp)
	}
}

// CPU is read right before the first op and right after the last: work
// done before the timed phase is never charged to the ops.
func TestCPUExcludesWorkBeforeTimedPhase(t *testing.T) {
	burn(300_000_000) // "set-up"
	var tm timed
	err := closedLoop(0, ownCPUErr, func(int) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	}, nil, &tm)
	if err != nil {
		t.Fatal(err)
	}
	perOp := tm.cpu * 1000 / float64(tm.attempted)
	if perOp > 1 {
		t.Fatalf("%.3f CPU ms per sleeping op: set-up CPU leaked into the timed phase", perOp)
	}
}

// A child's CPU is charged to the op that ran it, and the total can never
// exceed what the host's cores deliver over the timed phase — the bound
// an earlier benchmark broke when it counted CPU spent outside its ops.
func TestCPUIncludesChildrenWithinCoreBound(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c0 := ownCPU()
	burn(30_000_000) // what one child burns; must not be counted
	one := ownCPU() - c0
	// Every slice counts as quiet here, so host steal cannot drop the
	// slice that ran the children.
	g, err := newGate(ownCPUErr, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tm timed
	err = closedLoopGated(0, g, func(i int) error {
		if i >= 10 {
			time.Sleep(time.Millisecond)
			return nil
		}
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(), burnEnv+"=1")
		return cmd.Run()
	}, nil, &tm)
	if err != nil {
		t.Fatal(err)
	}
	// Ten children did the work of ten burns.
	if tm.cpu < 10*one*0.7 {
		t.Fatalf("timed phase charged %.3f CPU s; the ten children alone burned about %.3f s", tm.cpu, 10*one)
	}
	if max := float64(goruntime.NumCPU()) * tm.wall * 1.05; tm.cpu > max {
		t.Fatalf("timed phase charged %.3f CPU s in %.3f s of wall on %d cores", tm.cpu, tm.wall, goruntime.NumCPU())
	}
}

// Set-ups run between the ops, about setupShare of the phase, and their
// time and CPU stay out of the ops' figures.
func TestSetupsKeptOutOfOpFigures(t *testing.T) {
	var tm timed
	err := closedLoop(0, ownCPUErr, func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}, func(int) error {
		burn(30_000_000)
		return nil
	}, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.setup) < 2 {
		t.Fatalf("%d set-ups in a phase of %.2f s", len(tm.setup), tm.wall)
	}
	if perOp := tm.cpu * 1000 / float64(len(tm.lat)); perOp > 1 {
		t.Fatalf("%.3f CPU ms per sleeping op: set-up CPU was charged to the ops", perOp)
	}
	if opWall := sum(tm.lat) / 1000; tm.wall > 1.2*opWall {
		t.Fatalf("phase of %.3f s for %.3f s of ops: set-up time was charged to the ops", tm.wall, opWall)
	}
	if share := sum(tm.setup) / (sum(tm.setup) + tm.wall); share < setupShare/2 || share > 2*setupShare {
		t.Fatalf("set-ups took %.2f of the phase, want about %.2f", share, setupShare)
	}
}

// Timings come from the quiet slices; when those fall short, the least
// contended others make up the phase, and the rest stay out.
func TestGateUsesQuietestSlices(t *testing.T) {
	g := &gate{maxStolen: 0.05}
	for i, stolen := range []float64{0.01, 0.3, 0.02, 0.2, 0.5} {
		// Each slice's ops take i+1 ms, so the latencies name the slices used.
		lat := make([]float64, 60)
		for k := range lat {
			lat[k] = float64(i + 1)
		}
		g.slices = append(g.slices, slice{lat: lat, wall: 1, cpu: 0.5, stolen: stolen})
	}
	used := func(tm timed) []float64 {
		var out []float64
		for _, x := range tm.lat {
			if len(out) == 0 || out[len(out)-1] != x {
				out = append(out, x)
			}
		}
		return out
	}
	var tm timed
	g.finish(3, &tm)
	if got, want := used(tm), []float64{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("used slices %v, want %v", got, want)
	}
	if len(tm.lat) != 180 || tm.wall != 3 || tm.cpu != 1.5 || len(tm.notes) != 1 {
		t.Fatalf("timed %d ops over %g s, %g CPU s, notes %q", len(tm.lat), tm.wall, tm.cpu, tm.notes)
	}
	// Enough quiet slices: the contended ones are left out, with no note.
	var quiet timed
	g.finish(2, &quiet)
	if got := used(quiet); !reflect.DeepEqual(got, []float64{1, 3}) || len(quiet.notes) != 0 {
		t.Fatalf("used %v with notes %q for a phase the quiet slices cover", got, quiet.notes)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	span := 12 * time.Second
	a, b := genHubPlan(7, 144, span), genHubPlan(7, 144, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hub plan differs for the same seed")
	}
	if reflect.DeepEqual(a, genHubPlan(8, 144, span)) {
		t.Fatal("hub plan identical for another seed")
	}
	v := a.Variants[0]
	if !reflect.DeepEqual(payload(v), payload(v)) {
		t.Fatal("payload differs for the same variant")
	}
	if w := a.Variants[1]; reflect.DeepEqual(payload(v)[:64], payload(w)[:64]) {
		t.Fatal("two variants share payload bytes")
	}
	if !reflect.DeepEqual(genSweep(7), genSweep(7)) {
		t.Fatal("sweep input differs for the same seed")
	}
	if reflect.DeepEqual(genSweep(7), genSweep(8)) {
		t.Fatal("sweep input identical for another seed")
	}
	if perturbSeed(7, 3) != perturbSeed(7, 3) || perturbSeed(7, 3) == perturbSeed(8, 3) || perturbSeed(7, 3) == perturbSeed(7, 4) {
		t.Fatal("perturb op seeds are not a function of (seed, op)")
	}
}

// Every seed offers the same load: the same op count, push share and
// spread of payload sizes; pulls expect the digest their tag last held.
func TestHubPlanShape(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p := genHubPlan(seed, 144, 12*time.Second)
		pushes, overwrites := 0, 0
		holder := map[string]int{}
		for _, v := range p.Warm {
			holder[p.Variants[v].Tag] = v
		}
		var last time.Duration
		perSec := map[int]int{}
		for _, op := range p.Ops {
			if op.Due < last || op.Due >= 12*time.Second {
				t.Fatalf("seed %d: due times not sorted within the span", seed)
			}
			last = op.Due
			perSec[int(op.Due/time.Second)]++
			if op.Push {
				pushes++
				if _, ok := holder[op.Tag]; ok {
					overwrites++
				}
				holder[op.Tag] = op.Variant
				continue
			}
			if holder[op.Tag] != op.Variant {
				t.Fatalf("seed %d: pull of %s expects variant %d, tag holds %d", seed, op.Tag, op.Variant, holder[op.Tag])
			}
		}
		for sec := 0; sec < 12; sec++ {
			if perSec[sec] != 12 {
				t.Fatalf("seed %d: %d arrivals in second %d, want 12", seed, perSec[sec], sec)
			}
		}
		if len(p.Ops) != 144 || pushes != 48 || overwrites != 16 {
			t.Fatalf("seed %d: %d ops, %d pushes, %d overwrites; want 144, 48, 16", seed, len(p.Ops), pushes, overwrites)
		}
		var logSum float64
		for _, v := range p.Variants {
			if v.Size < payloadMin || v.Size > payloadMax {
				t.Fatalf("seed %d: payload of %d bytes out of bounds", seed, v.Size)
			}
			logSum += math.Log(float64(v.Size))
		}
		mid := (math.Log(payloadMin) + math.Log(payloadMax)) / 2
		if got := logSum / float64(len(p.Variants)); math.Abs(got-mid) > 0.05 {
			t.Fatalf("seed %d: mean log size %.3f, stratified draws should sit at %.3f", seed, got, mid)
		}
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (sch ub) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 8 0 100 0 0"
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 1290 {
		t.Fatalf("parseStatCPU = %d, %v; want 1290", ticks, err)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Fatal("short stat line accepted")
	}
	status := "Name:\tschub\nVmPeak:\t  812345 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n"
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 51234 {
		t.Fatalf("VmHWM = %d, %v; want 51234", kb, err)
	}
	if _, err := parseStatusKB("Name:\tx\n", "VmHWM"); err == nil {
		t.Fatal("missing VmHWM accepted")
	}
	h, err := parseHostTicks("cpu  100 5 50 800 10 1 2 32 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if err != nil || h.total != 1000 || h.steal != 32 || h.busy != 158 {
		t.Fatalf("host ticks = %+v, %v; want total 1000, steal 32, busy 158", h, err)
	}
	a, b := hostTicks{steal: 10, busy: 100, total: 1000}, hostTicks{steal: 30, busy: 280, total: 1200}
	if r := stealRatio(a, b); r != 0.1 {
		t.Fatalf("steal ratio = %g, want 0.1", r)
	}
	if r := stolenShare(a, b); r != 0.1 {
		t.Fatalf("stolen share = %g, want 0.1", r)
	}
	// The live files of this process parse.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	// A 64 MiB buffer, touched and released, stays in the peak until a
	// reset drops the peak to the current RSS.
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1
	}
	before, err := peakRSSMB(os.Getpid())
	if err != nil || before < 64 {
		t.Fatalf("own peak RSS = %g MB, %v; want at least 64", before, err)
	}
	buf = nil
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	if after, err := peakRSSMB(os.Getpid()); err != nil || after > before-32 {
		t.Fatalf("peak RSS after a reset = %g MB (%v), before it %g MB", after, err, before)
	}
}

func TestPromHist(t *testing.T) {
	text := `# TYPE hub_server_request_seconds histogram
hub_server_request_seconds_bucket{endpoint="PUT other",le="0.005"} 3
hub_server_request_seconds_sum{endpoint="PUT other"} 0.25
hub_server_request_seconds_count{endpoint="PUT other"} 5
hub_server_request_seconds_sum{endpoint="GET /healthz"} 9
hub_server_request_seconds_count{endpoint="GET /healthz"} 9
hub_server_request_seconds_sum{endpoint="GET other"} 0.5
hub_server_request_seconds_count{endpoint="GET other"} 10
`
	s, n, err := promHist(text, "hub_server_request_seconds", func(l string) bool {
		return !strings.Contains(l, "/healthz")
	})
	if err != nil || s != 0.75 || n != 15 {
		t.Fatalf("promHist = %g, %g, %v; want 0.75, 15", s, n, err)
	}
}

func TestSpanAttribution(t *testing.T) {
	kids := []obs.SpanSnapshot{
		{StartNS: 0, DurationNS: 10},
		{StartNS: 5, DurationNS: 10}, // overlaps the first
		{StartNS: 30, DurationNS: 5},
	}
	if got := coveredNS(kids); got != 20 {
		t.Fatalf("covered = %d, want 20", got)
	}
	parent := obs.SpanSnapshot{DurationNS: 40, Children: kids}
	if got := selfShare([]obs.SpanSnapshot{parent}); got != 0.5 {
		t.Fatalf("self share = %g, want 0.5", got)
	}
	c := map[string]float64{
		`ctmc_poisson_cache_total{outcome="hit"}`:        3,
		`ctmc_poisson_cache_total{outcome="family-hit"}`: 1,
		`ctmc_poisson_cache_total{outcome="miss"}`:       4,
		`ctmc_unicache_total{outcome="hit"}`:             7,
	}
	if got := counterSum(c, "ctmc_poisson_cache_total", "hit"); got != 4 {
		t.Fatalf("hits = %g, want 4", got)
	}
	if got := counterSum(c, "ctmc_poisson_cache_total"); got != 8 {
		t.Fatalf("total = %g, want 8", got)
	}
}

func TestReproSections(t *testing.T) {
	out := "==== table1 — Table I ====\nA\tB\nC\tD\n\n==== fig1 — x ====\nbody\n\n"
	got, ok := section(out, "table1")
	if !ok || got != "A\tB\nC\tD\n" {
		t.Fatalf("section = %q, %v", got, ok)
	}
	if _, ok := section(out, "matrix"); ok {
		t.Fatal("found a section that is not there")
	}
}
