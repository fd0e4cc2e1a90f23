package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// The traced run. It never produces end-to-end numbers: it times calls
// into each layer's public functions under the benchmark's own spans and
// reads the counters the program already exposes. A traced run must
// report every per-layer metric, whatever its workload, and no single
// probe reaches every layer; so every traced run replays all four probes
// and labels each metric with the probe it came from. The workload
// selects whose tracing overhead (the same op with and without
// instrumentation, interleaved) and unattributed share are reported.

// layerMetric is one per-layer metric: its layer, unit, and the
// end-to-end metric it should move.
type layerMetric struct {
	layer, name, unit, moves string
}

var layerMetrics = []layerMetric{
	{"runtime build", "runtime.builds", "count", "repro ops_per_s, cpu_ms_per_op"},
	{"runtime build", "runtime.build_cache_hit_ratio", "ratio", "repro ops_per_s, cpu_ms_per_op"},
	{"runtime build", "runtime.stages_executed", "count", "repro ops_per_s, cpu_ms_per_op"},
	{"runtime build", "core.build_all_ms", "ms", "repro ops_per_s, setup_s"},
	{"runtime run, core validate", "runtime.native_runs", "count", "repro op_p50_ms"},
	{"runtime run, core validate", "runtime.container_runs", "count", "repro op_p50_ms"},
	{"runtime run, core validate", "runtime.native_run_ms", "ms", "repro op_p50_ms"},
	{"runtime run, core validate", "runtime.container_run_ms", "ms", "repro op_p50_ms"},
	{"runtime run, core validate", "core.validations", "count", "repro op_p50_ms"},
	{"runtime run, core validate", "experiment.matrix_ms", "ms", "repro op_p50_ms"},
	{"runtime run, core validate", "experiment.badges_ms", "ms", "repro op_p50_ms"},
	{"runtime run, core validate", "experiment.motivation_ms", "ms", "repro op_p50_ms"},
	{"hub monolithic transfer", "hub.push_attempts", "count", "repro op_p50_ms"},
	{"hub monolithic transfer", "hub.pull_attempts", "count", "repro op_p50_ms"},
	{"hub monolithic transfer", "hub.bytes_pulled", "bytes", "repro op_p50_ms"},
	{"hub monolithic transfer", "hub.bytes_pushed", "bytes", "repro op_p50_ms"},
	{"hub monolithic transfer", "hub.layer_cache_hit_ratio", "ratio", "repro op_p50_ms"},
	{"hub monolithic transfer", "core.push_all_ms", "ms", "repro op_p50_ms"},
	{"image encode, digest", "image.encode_ms", "ms", "hub.push_p50_ms"},
	{"image encode, digest", "image.digest_ms", "ms", "hub.push_p50_ms"},
	{"image encode, digest", "image.bytes_per_push", "bytes", "hub.push_p50_ms"},
	{"hub layered transfer", "hub.layers_pushed", "count", "hub.push_p50_ms"},
	{"hub layered transfer", "hub.layers_skipped", "count", "hub.push_p50_ms"},
	{"hub layered transfer", "hub.layer_skip_ratio", "ratio", "hub.push_p50_ms"},
	{"hub layered transfer", "hub.layers_pulled", "count", "hub.pull_p50_ms"},
	{"hub layered transfer", "hub.layer_bytes_pulled", "bytes", "hub.pull_p50_ms"},
	{"hub layered transfer", "hub.chunks_verified", "count", "hub.pull_p50_ms"},
	{"hub layered transfer", "hub.retries", "count", "hub.push_p50_ms, hub.pull_p50_ms"},
	{"hub server, store", "hub.server_put_ms", "ms", "hub.push_p50_ms"},
	{"hub server, store", "hub.server_get_ms", "ms", "hub.pull_p50_ms"},
	{"hub server, store", "hub.server_post_ms", "ms", "hub.push_p50_ms"},
	{"hub server, store", "hub.store_entries", "count", "hub.peers_rss_mb"},
	{"hub server, store", "hub.store_layers", "count", "hub.peers_rss_mb"},
	{"hub/cluster", "cluster.replica_writes_per_push", "count", "hub.push_p50_ms"},
	{"hub/cluster", "cluster.handoffs", "count", "hub.push_p50_ms"},
	{"hub/cluster", "cluster.read_failovers", "count", "hub.pull_p50_ms"},
	{"hub/cluster", "cluster.read_repairs", "count", "hub.pull_p50_ms"},
	{"hub probe totals", "hub.push_p50_ms", "ms", "none gated: the hub has no end-to-end workload"},
	{"hub probe totals", "hub.pull_p50_ms", "ms", "none gated: the hub has no end-to-end workload"},
	{"hub probe totals", "hub.peers_cpu_ms_per_op", "ms", "none gated: the hub has no end-to-end workload"},
	{"hub probe totals", "hub.peers_rss_mb", "MB", "none gated: the hub has no end-to-end workload"},
	{"diagnostics", "gen.lag_ms", "ms", "none: the hub probe's load generator, not the program"},
	{"pepa", "pepa.parse_ms", "ms", "none gated: the rate sweep has no end-to-end workload; not perturb"},
	{"pepa/derive", "derive.ms_per_point", "ms", "none gated: the rate sweep has no end-to-end workload; not perturb"},
	{"pepa/derive", "derive.states", "count", "none gated: the rate sweep has no end-to-end workload; not perturb"},
	{"pepa/derive", "derive.us_per_state", "us", "none gated: the rate sweep has no end-to-end workload; not perturb"},
	{"ctmc assemble", "ctmc.assemble_ms_per_point", "ms", "perturb op_p50_ms (derivation per cell)"},
	{"ctmc assemble", "ctmc.rerate_ms", "ms", "perturb op_p50_ms"},
	{"ctmc solve", "ctmc.steady_ms_per_point", "ms", "none gated: the rate sweep has no end-to-end workload"},
	{"ctmc solve", "ctmc.steady_iterations", "count", "none gated: the rate sweep has no end-to-end workload"},
	{"ctmc solve", "ctmc.passage_ms", "ms", "perturb op_p50_ms, cpu_ms_per_op"},
	{"ctmc solve", "ctmc.transient_solves", "count", "perturb op_p50_ms, cpu_ms_per_op"},
	{"ctmc solve", "ctmc.uniformization_terms", "count", "perturb op_p50_ms, cpu_ms_per_op"},
	{"ctmc solve", "ctmc.poisson_cache_hit_ratio", "ratio", "perturb op_p50_ms"},
	{"ctmc solve", "ctmc.unicache_hit_ratio", "ratio", "perturb op_p50_ms"},
	{"robustness", "robustness.compare_ms", "ms", "perturb op_p50_ms"},
	{"robustness", "robustness.family_reuse_ratio", "ratio", "perturb op_p50_ms"},
	{"diagnostics", "trace.overhead_ratio", "ratio", "none"},
	{"diagnostics", "trace.unattributed_ratio", "ratio", "none"},
	{"diagnostics", "host.steal_ratio", "ratio", "none"},
	{"diagnostics", "host.calib_ms", "ms", "none"},
}

func unitOf(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// probeOut is what one probe measured.
type probeOut struct {
	metrics      map[string]float64
	unattributed float64 // share of the probe's traced time outside any layer span
	overhead     float64 // traced/untraced op time - 1; measured only when asked
	spans        any     // the probe's span tree, for the artifact
	notes        []string
}

// probe is one workload's tracing source.
type probe struct {
	workload string
	run      func(e env, overhead bool) (*probeOut, error)
}

func probes() []probe {
	return []probe{
		{"repro", reproProbe},
		{"hub", hubProbe},
		{"perturb", perturbProbe},
		{"ratesweep", sweepProbe},
	}
}

// artifact is the per-workload JSON attribution report.
type artifact struct {
	Workload string                   `json:"workload"`
	Seed     uint64                   `json:"seed"`
	Metrics  []artifactMetric         `json:"metrics"`
	Probes   map[string]artifactProbe `json:"probes"`
}

type artifactMetric struct {
	Probe string  `json:"probe"`
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
}

type artifactProbe struct {
	Unattributed float64  `json:"unattributed_ratio"`
	Spans        any      `json:"spans"`
	Notes        []string `json:"notes,omitempty"`
}

func traceRun(w workload, e env, outdir string) (*result, error) {
	vals := map[string]float64{}
	from := map[string]string{} // metric -> the probe that measured it
	art := artifact{Workload: w.name, Seed: e.seed, Probes: map[string]artifactProbe{}}
	attempted := 0
	for _, p := range probes() {
		own := p.workload == w.name
		out, err := p.run(e, own)
		attempted++
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.workload, err)
		}
		for k, v := range out.metrics {
			vals[k], from[k] = v, p.workload
		}
		if own {
			vals["trace.overhead_ratio"] = out.overhead
			vals["trace.unattributed_ratio"] = out.unattributed
			from["trace.overhead_ratio"], from["trace.unattributed_ratio"] = p.workload, p.workload
		}
		art.Probes[p.workload] = artifactProbe{Unattributed: out.unattributed, Spans: out.spans, Notes: out.notes}
	}
	res := &result{Correct: true, Attempted: attempted, Metrics: map[string]metric{}}
	fmt.Printf("traced run for workload %s (seed %d); per-layer metrics from all four probes\n", w.name, e.seed)
	fmt.Printf("  %-9s %-26s %-32s %14s %-6s %s\n", "probe", "layer", "metric", "value", "unit", "should move")
	for _, m := range layerMetrics {
		if strings.HasPrefix(m.name, "host.") {
			continue // filled in by main after the run
		}
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		art.Metrics = append(art.Metrics, artifactMetric{from[m.name], m.layer, m.name, v, m.unit, m.moves})
		fmt.Printf("  %-9s %-26s %-32s %14.6g %-6s %s\n", from[m.name], m.layer, m.name, v, m.unit, m.moves)
	}
	for _, name := range sortedKeys(art.Probes) {
		for _, n := range art.Probes[name].Notes {
			fmt.Printf("  note (%s): %s\n", name, n)
		}
	}
	path := filepath.Join(outdir, "trace-"+w.name+".json")
	b, err := json.MarshalIndent(art, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("  attribution report written to %s\n", path)
	return res, nil
}

// counterSum adds every series of a counter family whose labels contain
// all of the given label fragments (e.g. `outcome="hit"`).
func counterSum(counters map[string]float64, family string, labels ...string) float64 {
	var t float64
	for key, v := range counters {
		name, rest, _ := strings.Cut(key, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// ratio returns a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// walkSpans visits every span of a forest.
func walkSpans(spans []obs.SpanSnapshot, fn func(s obs.SpanSnapshot)) {
	for _, s := range spans {
		fn(s)
		walkSpans(s.Children, fn)
	}
}

// spanMS sums the durations, in ms, of every span whose name matches.
func spanMS(spans []obs.SpanSnapshot, match func(string) bool) (total float64, n int) {
	walkSpans(spans, func(s obs.SpanSnapshot) {
		if match(s.Name) {
			total += float64(s.DurationNS) / 1e6
			n++
		}
	})
	return total, n
}

func named(name string) func(string) bool { return func(s string) bool { return s == name } }

// coveredNS is the length of the union of the root spans' intervals.
func coveredNS(roots []obs.SpanSnapshot) int64 {
	iv := make([][2]int64, 0, len(roots))
	for _, s := range roots {
		iv = append(iv, [2]int64{s.StartNS, s.StartNS + s.DurationNS})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	cur := int64(-1)
	for _, x := range iv {
		switch {
		case cur < 0 || x[0] > end:
			if cur >= 0 {
				total += end - cur
			}
			cur, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if cur >= 0 {
		total += end - cur
	}
	return total
}

// selfShare is the share of the parents' time their children do not
// cover: the part of a probe's traced time attributed to no layer.
func selfShare(parents []obs.SpanSnapshot) float64 {
	var all, kids int64
	for _, p := range parents {
		all += p.DurationNS
		kids += coveredNS(p.Children)
	}
	return ratio(float64(all-kids), float64(all))
}
