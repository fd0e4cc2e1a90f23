// Command e2ebench is the repository's end-to-end benchmark. It times the
// paper's pipeline — the full cmd/repro evaluation and the robustness
// perturbation study — and checks the output of every op. With -trace 1
// it instead replays each layer's public calls, including a replicated
// hub under open-loop push/pull traffic and a PEPA rate sweep, under the
// benchmark's own spans and reports per-layer metrics. See README.md in
// this directory.
//
// Run it through run.sh, which builds it and the binaries it drives:
//
//	bash e2ebench/run.sh --workload repro --seed 1 --seconds 45 --trace 0
//	bash e2ebench/run.sh --workload perturb --repeat 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what one run of a workload needs besides its seed.
type env struct {
	seed    uint64
	seconds float64
	bindir  string // built repro and schub binaries
	workdir string // scratch space for this run, removed afterwards
	root    string // the checkout root (goldens live under it)
}

// timed is the raw outcome of one workload's set-up and timed phase.
type timed struct {
	setup     []float64 // seconds per set-up repeat
	lat       []float64 // ms per completed op
	attempted int
	failed    int
	wall      float64 // seconds the timed phase lasted
	cpu       float64 // user+sys seconds over the timed phase, children included
	rssMB     float64
	rssWhat   string
	extra     map[string][]float64 // workload-specific latency splits, ms
	diag      map[string]float64   // diagnostics printed but not gated
	problems  []string             // failed output checks, first few kept
	notes     []string
}

func (t *timed) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(e env) (*timed, error)
}

func workloads() []workload {
	return []workload{
		{"repro", "the paper's full evaluation as a user runs it: build, validate, hub transfer", runRepro},
		{"perturb", "robustness perturbation study: chain-family re-rating and passage-time solves", runPerturb},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// The contract's end-to-end metrics, in print order.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// minOps is the least number of ops a timed phase completes, so that at
// least minTail samples lie beyond p90.
var minOps = minSamplesFor(0.9)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	wname := flag.String("workload", "", "workload to run: repro or perturb")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 45, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end measurement")
	bindir := flag.String("bindir", "", "directory holding the built repro and schub binaries (default: next to this binary)")
	workdir := flag.String("workdir", ".bench_build", "scratch directory inside the checkout")
	repeat := flag.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, ... and print each metric's median and IQR/median")
	flag.Parse()

	w, err := findWorkload(*wname)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *repeat > 0 {
		return repeatRuns(w.name, *seed, *seconds, *trace, *repeat, *bindir, *workdir)
	}
	if *bindir == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		*bindir = filepath.Dir(exe)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	absBin, err := filepath.Abs(*bindir)
	if err != nil {
		return err
	}
	e := env{seed: *seed, seconds: *seconds, bindir: absBin, workdir: scratch, root: root}

	h0, herr := readHostTicks()
	calib := calibrate()
	var res *result
	if *trace == 1 {
		res, err = traceRun(w, e, *workdir)
	} else {
		res, err = measure(w, e)
	}
	if err != nil {
		return err
	}
	host := map[string]float64{"host.calib_ms": calib}
	if h1, err := readHostTicks(); err == nil && herr == nil {
		host["host.steal_ratio"] = stealRatio(h0, h1)
	}
	if *trace == 1 {
		for k, v := range host {
			res.Metrics[k] = metric{v, unitOf(k)}
		}
	} else {
		printDiag("host", host)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs the end-to-end measurement and prints its table.
func measure(w workload, e env) (*result, error) {
	t, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	done := len(t.lat) // completed ops in the slices the timings use
	if done == 0 {
		return nil, fmt.Errorf("%s: no op completed: %s", w.name, strings.Join(t.problems, "; "))
	}
	if len(t.setup) == 0 {
		return nil, fmt.Errorf("%s: no set-up in the slices the timings use", w.name)
	}
	vals := map[string]float64{
		"setup_s":       median(t.setup),
		"ops_per_s":     float64(done) / t.wall,
		"op_p50_ms":     median(t.lat),
		"op_p90_ms":     percentile(t.lat, 0.9),
		"cpu_ms_per_op": t.cpu * 1000 / float64(done),
		"peak_rss_mb":   t.rssMB,
	}
	counts := map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups during the phase", len(t.setup)),
		"ops_per_s":     fmt.Sprintf("%d ops over %.2f s of quiet slices", done, t.wall),
		"op_p50_ms":     fmt.Sprintf("n=%d", len(t.lat)),
		"op_p90_ms":     fmt.Sprintf("n=%d, %d beyond", len(t.lat), beyond(len(t.lat), 0.9)),
		"cpu_ms_per_op": fmt.Sprintf("%.3f CPU s / %d ops", t.cpu, done),
		"peak_rss_mb":   t.rssWhat,
	}
	fmt.Printf("workload %s (seed %d): %s\n", w.name, e.seed, w.why)
	fmt.Printf("  ops attempted %d, failed %d\n", t.attempted, t.failed)
	for _, m := range e2eUnits {
		fmt.Printf("  %-14s %12.4f %-4s (%s)\n", m.name, vals[m.name], m.unit, counts[m.name])
	}
	var extras []string
	for k := range t.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		xs := t.extra[k]
		if len(xs) == 0 {
			continue
		}
		fmt.Printf("  %-14s %12.4f %-4s (n=%d)\n", k, median(xs), "ms", len(xs))
		if t.diag == nil {
			t.diag = map[string]float64{}
		}
		t.diag[k] = median(xs)
	}
	for _, p := range t.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	for _, n := range t.notes {
		fmt.Printf("  note: %s\n", n)
	}
	if len(t.diag) > 0 {
		printDiag("diag", t.diag)
	}
	tailOK := tailOK(len(t.lat), 0.9)
	if !tailOK {
		fmt.Printf("  p90 rests on fewer than %d samples beyond it\n", minTail)
	}
	res := &result{
		Correct:   t.failed == 0 && tailOK,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range e2eUnits {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, nil
}

// printDiag prints diagnostics as one "<tag> {json}" line, which repeat
// mode also aggregates.
func printDiag(tag string, vals map[string]float64) {
	b, err := json.Marshal(vals)
	if err != nil {
		return
	}
	fmt.Printf("%s %s\n", tag, b)
}

// setupShare is the share of a closed loop's phase spent on set-ups.
// Every workload's set-up takes well under a second, so it is repeated on
// fresh instances. Spread through the phase, the set-ups meet the same
// host as the ops and pass the same quiet-slice gate; a burst of them
// before the phase would time the host of a single moment.
const setupShare = 0.12

// closedLoop runs op back to back, one at a time, in slices of the timed
// phase (see gate.go) until the host-quiet slices add up to seconds and
// minOps ops, or the phase reaches its cap. Between ops it runs setup
// whenever set-ups have taken less than setupShare of the phase so far.
// cpu is read at every slice boundary and around every set-up, so nothing
// done in set-up or warm-up is charged to the ops. A failed set-up fails
// the run.
func closedLoop(seconds float64, cpu func() (float64, error), op, setup func(i int) error, t *timed) error {
	g, err := newGate(cpu, maxStolen)
	if err != nil {
		return err
	}
	return closedLoopGated(seconds, g, op, setup, t)
}

func closedLoopGated(seconds float64, g *gate, op, setup func(i int) error, t *timed) error {
	limit := phaseCap(seconds)
	var setupTime time.Duration
	for i, j := 0, 0; ; {
		if g.due() {
			if err := g.closeSlice(); err != nil {
				return err
			}
			if g.enough(seconds) || g.elapsed() >= limit {
				break
			}
		}
		if setup != nil && float64(setupTime) < setupShare*float64(g.elapsed()) {
			c0, err := g.cpu()
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = setup(j)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("set-up %d: %w", j, err)
			}
			c1, err := g.cpu()
			if err != nil {
				return err
			}
			g.recordSetup(d.Seconds(), c1-c0)
			setupTime += d
			j++
			continue
		}
		t0 := time.Now()
		err := op(i)
		d := time.Since(t0)
		t.attempted++
		i++
		if err != nil {
			t.fail("op %d: %v", i-1, err)
			continue
		}
		g.record(float64(d.Nanoseconds()) / 1e6)
	}
	g.finish(seconds, t)
	return nil
}

func ownCPUErr() (float64, error) { return ownCPU(), nil }

// setOpRSS reports the median per-op peak RSS of the benchmark process.
func setOpRSS(t *timed, rss []float64) {
	t.rssMB = median(rss)
	t.rssWhat = fmt.Sprintf("median over %d ops of the benchmark process's peak RSS during the op", len(rss))
}

var errCheck = errors.New("output check failed")
