package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs one workload k times, each in a fresh process with
// seeds seed, seed+1, ..., and prints each metric's median and IQR/median
// — the spread the benchmark's bounds are judged by — next to the bound
// in BENCHMARK.json when one is found in the working directory.
func repeatRuns(name string, seed uint64, seconds float64, trace, k int, bindir, workdir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	passthrough := []string{"-workdir", workdir}
	if bindir != "" {
		passthrough = append(passthrough, "-bindir", bindir)
	}
	series := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		args := append([]string{
			"-workload", name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		}, passthrough...)
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed+uint64(i), err)
		}
		res, diag, err := parseRunOutput(out)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("run %d (seed %d): correct=%v, %d of %d ops failed", i, seed+uint64(i), res.Correct, res.Failed, res.Attempted)
		}
		line := fmt.Sprintf("run %d seed %d:", i, seed+uint64(i))
		for _, mn := range sortedKeys(res.Metrics) {
			m := res.Metrics[mn]
			series[mn] = append(series[mn], m.Value)
			units[mn] = m.Unit
			line += fmt.Sprintf(" %s=%.4g", mn, m.Value)
		}
		for _, dn := range sortedKeys(diag) {
			series[dn] = append(series[dn], diag[dn])
			line += fmt.Sprintf(" %s=%.4g", dn, diag[dn])
		}
		fmt.Println(line)
	}
	bounds := readBounds("BENCHMARK.json")
	fmt.Printf("workload %s, %d runs of %g s, trace %d\n", name, k, seconds, trace)
	fmt.Printf("  %-34s %14s %10s %8s %s\n", "metric", "median", "IQR/med", "bound", "")
	for _, mn := range sortedKeys(series) {
		xs := series[mn]
		sp, err := spread(xs)
		if err != nil {
			continue
		}
		verdict, bound := "", ""
		if b, ok := bounds[mn]; ok {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
			switch {
			case sp > b:
				verdict = "OVER BOUND"
			case sp > b/3:
				verdict = "above a third of the bound"
			default:
				verdict = "steady"
			}
		}
		fmt.Printf("  %-34s %14.5g %10.4f %8s %s %s\n", mn, median(xs), sp, bound, units[mn], verdict)
	}
	return nil
}

// parseRunOutput reads a run's final result line and its "host" and
// "diag" lines.
func parseRunOutput(out []byte) (*result, map[string]float64, error) {
	diag := map[string]float64{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		last = line
		for _, tag := range []string{"host ", "diag "} {
			if rest, ok := strings.CutPrefix(line, tag); ok {
				var m map[string]float64
				if json.Unmarshal([]byte(rest), &m) == nil {
					for k, v := range m {
						diag[k] = v
					}
				}
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, diag, nil
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json, or an
// empty map when there is none.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
