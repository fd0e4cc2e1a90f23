package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ctmc"
	"repro/internal/experiment"
	"repro/internal/hub"
	"repro/internal/hub/cluster"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/robustness"
)

// Each probe replays one workload's layer calls under the benchmark's
// spans and reads the program's counters. Counts come from a fixed,
// single-threaded call sequence, so they repeat exactly for a seed.

// medianOf takes, per metric, the median over repeated measurements.
func medianOf(runs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range runs[0] {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r[k]
		}
		out[k] = median(xs)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// overheadRatio is the traced median over the untraced median, minus one.
func overheadRatio(traced, plain []float64) float64 { return median(traced)/median(plain) - 1 }

// ---- repro: the -metrics-out span tree and counters ----

const reproProbeRuns = 5

func reproMetrics(s *obs.Snapshot) map[string]float64 {
	c := s.Counters
	spans := s.Spans
	total := func(name string) float64 { t, _ := spanMS(spans, named(name)); return t }
	_, validations := spanMS(spans, func(n string) bool {
		return strings.HasPrefix(n, "core.validate:") || strings.HasPrefix(n, "cell:")
	})
	builds := counterSum(c, "runtime_builds_total")
	layerHits := counterSum(c, "hub_client_layer_cache_hits_total")
	return map[string]float64{
		"runtime.builds":                builds,
		"runtime.build_cache_hit_ratio": ratio(counterSum(c, "runtime_builds_total", `cached="true"`), builds),
		"runtime.stages_executed":       counterSum(c, "runtime_build_stages_total", `outcome="executed"`),
		"core.build_all_ms":             total("core.build_all"),
		"runtime.native_runs":           counterSum(c, "runtime_native_runs_total"),
		"runtime.container_runs":        counterSum(c, "runtime_runs_total"),
		"runtime.native_run_ms":         total("native_run"),
		"runtime.container_run_ms":      total("container_run"),
		"core.validations":              float64(validations),
		"experiment.matrix_ms":          total("experiment:matrix"),
		"experiment.badges_ms":          total("experiment:badges"),
		"experiment.motivation_ms":      total("experiment:motivation"),
		"hub.push_attempts":             counterSum(c, "hub_client_attempts_total", `op="push"`),
		"hub.pull_attempts":             counterSum(c, "hub_client_attempts_total", `op="pull"`),
		"hub.bytes_pulled":              counterSum(c, "hub_client_bytes_pulled_total"),
		"hub.bytes_pushed":              counterSum(c, "hub_client_bytes_pushed_total"),
		"hub.layer_cache_hit_ratio":     ratio(layerHits, layerHits+counterSum(c, "hub_client_layers_pulled_total")),
		"core.push_all_ms":              total("core.push_all"),
	}
}

func readSnapshot(path string) (*obs.Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func reproProbe(e env, overhead bool) (*probeOut, error) {
	bin := filepath.Join(e.bindir, "repro")
	out := &probeOut{}
	var runs []map[string]float64
	var traced, plain, unattr []float64
	var first map[string]float64
	for i := 0; i < reproProbeRuns; i++ {
		if overhead {
			d, err := reproWall(bin)
			if err != nil {
				return nil, err
			}
			plain = append(plain, ms(d))
		}
		path := filepath.Join(e.workdir, fmt.Sprintf("repro-metrics-%d.json", i))
		d, err := reproWall(bin, "-metrics-out", path)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ms(d))
		snap, err := readSnapshot(path)
		if err != nil {
			return nil, err
		}
		// The child's spans start when its registry does; process start
		// and the snapshot write fall outside them.
		unattr = append(unattr, 1-float64(coveredNS(snap.Spans))/float64(d.Nanoseconds()))
		if first == nil {
			first = snap.Counters
			out.spans = snap.Spans
		} else if diff := countsDiff(first, snap.Counters); len(diff) > 0 {
			out.notes = append(out.notes, fmt.Sprintf("traced run %d counted differently from run 0: %s", i, strings.Join(diff, ", ")))
		}
		runs = append(runs, reproMetrics(snap))
	}
	out.metrics = medianOf(runs)
	out.unattributed = median(unattr)
	if overhead {
		out.overhead = overheadRatio(traced, plain)
	}
	return out, nil
}

// countsDiff lists the series two counter snapshots disagree on.
func countsDiff(a, b map[string]float64) []string {
	var out []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			out = append(out, fmt.Sprintf("%s %g vs %g", k, v, w))
		}
	}
	for k, w := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s 0 vs %g", k, w))
		}
	}
	sort.Strings(out)
	return out
}

// ---- hub: cluster counters, scraped peer /metrics, benchmark spans ----

const (
	hubProbeOps  = 36
	hubProbeSpan = 3 * time.Second
)

// promHist sums a histogram family's _sum and _count over the series
// whose labels satisfy keep, from Prometheus text exposition.
func promHist(text, family string, keep func(labels string) bool) (sum, count float64, err error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces ("PUT other"); the value is the
		// last field.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, val := line[:sp], line[sp+1:]
		name, labels, _ := strings.Cut(series, "{")
		var dst *float64
		switch name {
		case family + "_sum":
			dst = &sum
		case family + "_count":
			dst = &count
		default:
			continue
		}
		if !keep(labels) {
			continue
		}
		v, perr := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %w", line, perr)
		}
		*dst += v
	}
	return sum, count, sc.Err()
}

func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b.String(), sc.Err()
}

// hubProbe has no end-to-end workload, so it never measures overhead.
func hubProbe(e env, _ bool) (*probeOut, error) {
	plan := genHubPlan(e.seed, hubProbeOps, hubProbeSpan)
	imgs, err := buildHubImages(plan)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	h, err := setUpHub(filepath.Join(e.bindir, "schub"), filepath.Join(e.workdir, "probe"), reg, imgs.bases)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	for _, v := range plan.Warm {
		if err := h.exec(hubOp{Push: true, Variant: v, Tag: plan.Variants[v].Tag}, imgs, reg); err != nil {
			return nil, fmt.Errorf("warm-up push: %w", err)
		}
	}
	var blobBytes []float64
	traced := func(op hubOp) error {
		sp := reg.StartSpan("op:" + op.Tag)
		defer sp.End()
		if !op.Push {
			return h.tracedPull(op, imgs, reg, sp)
		}
		img := imgs.variants[op.Variant]
		d := sp.StartSpan("image.digest")
		_, err := img.Digest()
		d.End()
		if err != nil {
			return err
		}
		enc := sp.StartSpan("image.encode")
		blob, err := img.MarshalLayered()
		enc.End()
		if err != nil {
			return err
		}
		blobBytes = append(blobBytes, float64(len(blob)))
		p := sp.StartSpan("cluster.push")
		defer p.End()
		return h.exec(op, imgs, reg)
	}
	cpu0, err := peersCPU(h.peers)
	if err != nil {
		return nil, err
	}
	// One op in flight: the call sequence, and so every count, is fixed.
	lags, err := openLoop(plan, traced)
	if err != nil {
		return nil, err
	}
	cpu1, err := peersCPU(h.peers)
	if err != nil {
		return nil, err
	}
	rss, err := peersRSS(h.peers)
	if err != nil {
		return nil, err
	}
	out := &probeOut{metrics: map[string]float64{}}
	m := out.metrics
	snap := reg.Snapshot()
	c := snap.Counters
	_, pushes := spanMS(snap.Spans, named("cluster.push"))
	var pushLat, pullLat []float64
	walkSpans(snap.Spans, func(s obs.SpanSnapshot) {
		switch s.Name {
		case "cluster.push":
			pushLat = append(pushLat, float64(s.DurationNS)/1e6)
		case "cluster.pull":
			pullLat = append(pullLat, float64(s.DurationNS)/1e6)
		}
	})
	encMS, encN := spanMS(snap.Spans, named("image.encode"))
	digMS, digN := spanMS(snap.Spans, named("image.digest"))
	m["image.encode_ms"] = encMS / float64(encN)
	m["image.digest_ms"] = digMS / float64(digN)
	m["image.bytes_per_push"] = sum(blobBytes) / float64(len(blobBytes))
	pushed := counterSum(c, "hub_client_layers_pushed_total")
	skipped := counterSum(c, "hub_client_layers_skipped_total")
	m["hub.layers_pushed"] = pushed
	m["hub.layers_skipped"] = skipped
	m["hub.layer_skip_ratio"] = ratio(skipped, pushed+skipped)
	m["hub.layers_pulled"] = counterSum(c, "hub_client_layers_pulled_total")
	m["hub.layer_bytes_pulled"] = counterSum(c, "hub_client_layer_bytes_pulled_total")
	m["hub.chunks_verified"] = counterSum(c, "hub_client_pull_chunks_verified_total")
	m["hub.retries"] = counterSum(c, "hub_client_retries_total")
	m["hub.push_p50_ms"] = median(pushLat)
	m["hub.pull_p50_ms"] = median(pullLat)
	// Every cluster push made through the registry: the seeded bases, the
	// warm-up variants and the probe's pushes.
	allPushes := float64(len(imgs.bases) + len(plan.Warm) + pushes)
	m["cluster.replica_writes_per_push"] = counterSum(c, "hub_cluster_replica_writes_total", `outcome="ok"`) / allPushes
	m["cluster.handoffs"] = counterSum(c, "hub_cluster_handoffs_total")
	m["cluster.read_failovers"] = counterSum(c, "hub_cluster_read_failovers_total")
	m["cluster.read_repairs"] = counterSum(c, "hub_cluster_read_repairs_total")
	m["gen.lag_ms"] = median(lags)
	m["hub.peers_cpu_ms_per_op"] = 1000 * (cpu1 - cpu0) / float64(len(plan.Ops))
	m["hub.peers_rss_mb"] = rss

	// Server side: each peer's /metrics, then its store summary.
	var putS, putN, getS, getN, postS, postN float64
	for _, p := range h.peers {
		text, err := scrape(p.metricsURL)
		if err != nil {
			return nil, err
		}
		for _, x := range []struct {
			method string
			s, n   *float64
		}{{"PUT ", &putS, &putN}, {"GET ", &getS, &getN}, {"POST ", &postS, &postN}} {
			s, n, err := promHist(text, "hub_server_request_seconds", func(l string) bool {
				return strings.Contains(l, `endpoint="`+x.method) && !strings.Contains(l, "/healthz")
			})
			if err != nil {
				return nil, err
			}
			*x.s += s
			*x.n += n
		}
	}
	m["hub.server_put_ms"] = 1000 * ratio(putS, putN)
	m["hub.server_get_ms"] = 1000 * ratio(getS, getN)
	m["hub.server_post_ms"] = 1000 * ratio(postS, postN)
	for _, p := range h.peers {
		st, err := hub.NewClient(p.url).NodeStatus()
		if err != nil {
			return nil, err
		}
		m["hub.store_entries"] += float64(st.Entries)
		m["hub.store_layers"] += float64(st.Layers)
	}
	var ops []obs.SpanSnapshot
	for _, s := range snap.Spans {
		if strings.HasPrefix(s.Name, "op:") {
			ops = append(ops, s)
		}
	}
	out.unattributed = selfShare(ops)
	out.spans = snap.Spans
	out.notes = append(out.notes, "the hub's endpoint classes fold manifest and layer requests together, so server times are per HTTP method")

	return out, nil
}

// tracedPull is a fresh-client pull with spans around the client's
// construction and the pull.
func (h *hubCluster) tracedPull(op hubOp, imgs *hubImages, reg *obs.Registry, parent *obs.Span) error {
	want := imgs.digests[op.Variant]
	n := parent.StartSpan("cluster.new")
	fresh, err := cluster.New(cluster.Options{Peers: clusterPeers(h.peers), Replication: hubR, Obs: reg})
	n.End()
	if err != nil {
		return err
	}
	p := parent.StartSpan("cluster.pull")
	img, d, err := fresh.Pull(hubColl, variantName, op.Tag, want)
	p.End()
	if err != nil {
		return err
	}
	if d != want || img == nil {
		return fmt.Errorf("%w: pull %s returned %s, want %s", errCheck, op.Tag, d, want)
	}
	return nil
}

// ---- perturb: Study.Obs counters and one machine cell replayed ----

const perturbProbeAB = 7

func perturbProbe(e env, overhead bool) (*probeOut, error) {
	reg := obs.NewRegistry()
	seed0 := perturbSeed(e.seed, 0)

	// One traced op on one thread, so cache hit/miss splits repeat exactly.
	prev := goruntime.GOMAXPROCS(1)
	s := robustness.NewStudy()
	s.Obs = reg
	sp := reg.StartSpan("robustness.compare")
	a, b, w, err := s.CompareMappings(perturbTau, perturbSpread, perturbN, seed0, perturbSamples)
	sp.End()
	s.Close()
	goruntime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	if err := checkCompare(compareResult{a, b, w}); err != nil {
		return nil, err
	}

	// The cell replay: machine M1 under mapping A, derived once and
	// re-rated to a perturbed study's rates, as the study's chain
	// families do.
	root := reg.StartSpan("cell:A/M1")
	base := robustness.NewStudy()
	pert, err := base.Perturbed(perturbSpread, seed0)
	if err != nil {
		return nil, err
	}
	model, err := base.MachineModel(robustness.MappingA, 0, false)
	if err != nil {
		return nil, err
	}
	pm, err := pert.MachineModel(robustness.MappingA, 0, false)
	if err != nil {
		return nil, err
	}
	c := root.StartSpan("derive.explore")
	ss, err := derive.Explore(model, derive.Options{})
	c.End()
	if err != nil {
		return nil, err
	}
	c = root.StartSpan("ctmc.family")
	fam, err := ctmc.NewChainFamily(ss)
	c.End()
	if err != nil {
		return nil, err
	}
	c = root.StartSpan("ctmc.rerate")
	chain, err := fam.ChainForRates(pm.Rates)
	c.End()
	if err != nil {
		return nil, err
	}
	targets := ss.StatesMatching(func(term string) bool { return strings.Contains(term, "Done1") })
	times := make([]float64, perturbSamples+1)
	for i := range times {
		times[i] = perturbTau * float64(i) / perturbSamples
	}
	c = root.StartSpan("ctmc.passage")
	cdf, err := chain.FirstPassageCDF(chain.PointMass(0), targets, times, 1e-10)
	c.End()
	root.End()
	if err != nil {
		return nil, err
	}
	want, err := pert.FinishingCDF(robustness.MappingA, 0, times)
	if err != nil {
		return nil, err
	}
	for i := range want.Probs {
		if math.Float64bits(want.Probs[i]) != math.Float64bits(cdf.Probs[i]) {
			return nil, fmt.Errorf("%w: replayed cell CDF differs from the study's at t=%g", errCheck, times[i])
		}
	}

	snap := reg.Snapshot()
	cs := snap.Counters
	out := &probeOut{metrics: map[string]float64{}, spans: snap.Spans}
	m := out.metrics
	m["robustness.compare_ms"], _ = spanMS(snap.Spans, named("robustness.compare"))
	m["ctmc.rerate_ms"], _ = spanMS(snap.Spans, named("ctmc.rerate"))
	m["ctmc.passage_ms"], _ = spanMS(snap.Spans, named("ctmc.passage"))
	m["ctmc.transient_solves"] = counterSum(cs, "ctmc_transient_solves_total")
	m["ctmc.uniformization_terms"] = counterSum(cs, "ctmc_uniformization_terms_total")
	m["ctmc.poisson_cache_hit_ratio"] = ratio(counterSum(cs, "ctmc_poisson_cache_total", "hit"), counterSum(cs, "ctmc_poisson_cache_total"))
	m["ctmc.unicache_hit_ratio"] = ratio(counterSum(cs, "ctmc_unicache_total", "hit"), counterSum(cs, "ctmc_unicache_total"))
	m["robustness.family_reuse_ratio"] = ratio(counterSum(cs, "robustness_family_total", `outcome="reuse"`), counterSum(cs, "robustness_family_total"))
	for _, r := range snap.Spans {
		if r.Name == "cell:A/M1" {
			out.unattributed = selfShare([]obs.SpanSnapshot{r})
		}
	}
	if overhead {
		// The workload's op at full parallelism, with and without a
		// registry attached, interleaved.
		var tr, pl []float64
		for i := 0; i < perturbProbeAB; i++ {
			for k := 0; k < 2; k++ {
				withObs := (i+k)%2 == 0
				st := robustness.NewStudy()
				if withObs {
					st.Obs = obs.NewRegistry()
				}
				t0 := time.Now()
				_, _, _, err := st.CompareMappings(perturbTau, perturbSpread, perturbN, perturbSeed(e.seed, i), perturbSamples)
				d := ms(time.Since(t0))
				st.Close()
				if err != nil {
					return nil, err
				}
				if withObs {
					tr = append(tr, d)
				} else {
					pl = append(pl, d)
				}
			}
		}
		out.overhead = overheadRatio(tr, pl)
	}
	return out, nil
}

// ---- ratesweep: RateSweep's public calls, replayed on one thread ----

// sweepReplay runs RateSweep's calls point by point on the calling
// goroutine, with spans when reg is non-nil.
func sweepReplay(in sweepInput, reg *obs.Registry) ([]experiment.Point, int, error) {
	root := reg.StartSpan("ratesweep")
	defer root.End()
	sp := root.StartSpan("pepa.parse")
	m, err := pepa.Parse(in.Source)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	var pts []experiment.Point
	states := 0
	for _, v := range in.Values {
		c := m.Clone()
		c.DefineRate(in.Rate, v)
		sp = root.StartSpan("derive.explore")
		ss, err := derive.Explore(c, derive.Options{})
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		states += ss.NumStates()
		sp = root.StartSpan("ctmc.assemble")
		chain := ctmc.FromStateSpace(ss)
		sp.End()
		chain.Obs = reg
		sp = root.StartSpan("ctmc.steady")
		pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		sp = root.StartSpan("ctmc.throughput")
		th, err := chain.Throughput(pi, in.Action)
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		pts = append(pts, experiment.Point{Value: v, Measure: th})
	}
	return pts, states, nil
}

// sweepProbe has no end-to-end workload, so it never measures overhead.
func sweepProbe(e env, _ bool) (*probeOut, error) {
	in := genSweep(e.seed)
	ref, err := sweepReference(in)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	pts, states, err := sweepReplay(in, reg)
	if err != nil {
		return nil, err
	}
	if err := checkPoints(pts, ref); err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	out := &probeOut{metrics: map[string]float64{}, spans: snap.Spans}
	m := out.metrics
	n := float64(len(in.Values))
	deriveMS, _ := spanMS(snap.Spans, named("derive.explore"))
	asmMS, _ := spanMS(snap.Spans, named("ctmc.assemble"))
	steadyMS, _ := spanMS(snap.Spans, named("ctmc.steady"))
	m["pepa.parse_ms"], _ = spanMS(snap.Spans, named("pepa.parse"))
	m["derive.ms_per_point"] = deriveMS / n
	m["derive.states"] = float64(states) / n
	m["derive.us_per_state"] = 1000 * deriveMS / float64(states)
	m["ctmc.assemble_ms_per_point"] = asmMS / n
	m["ctmc.steady_ms_per_point"] = steadyMS / n
	m["ctmc.steady_iterations"] = counterSum(snap.Counters, "ctmc_steady_iterations_total")
	out.unattributed = selfShare(snap.Spans)
	return out, nil
}
