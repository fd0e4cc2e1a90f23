package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func runCmd(t testing.TB, args ...string) (string, error) {
	t.Helper()
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() {
		os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("repro", flag.ContinueOnError)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	os.Args = append([]string{"repro"}, args...)
	runErr := run()
	w.Close()
	var out strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	r.Close()
	return out.String(), runErr
}

func TestSingleExperiments(t *testing.T) {
	cases := map[string]string{
		"table1":     "Mapping A",
		"fig1":       "match=true",
		"fig2":       "digraph activity",
		"fig6":       "digest-ok=true",
		"security":   "escalation-possible=false",
		"futurework": "container output identical to native: true",
		"badges":     "earned 5/5 badges",
	}
	for name, want := range cases {
		out, err := runCmd(t, "-only", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("%s output missing %q:\n%s", name, want, out)
		}
	}
}

func TestOutdirWritesFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCmd(t, "-only", "table1", "-outdir", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "a5,a9,a12,a17,a20") {
		t.Errorf("table1.txt content:\n%s", data)
	}
}

func TestFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	out, err := runCmd(t)
	if err != nil {
		t.Fatal(err)
	}
	for _, banner := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "matrix", "motivation", "security", "futurework", "badges"} {
		if !strings.Contains(out, "==== "+banner) {
			t.Errorf("experiment %s missing from full run", banner)
		}
	}
}

// runCounted runs repro in process with -metrics-out and returns the
// counters of its metrics snapshot.
func runCounted(t testing.TB, args ...string) map[string]float64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.json")
	if _, err := runCmd(t, append(args, "-metrics-out", path)...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestFullRunComputesEachFactOnce pins the shared evidence: a full run
// builds the three containers and the model checker once each, pushes
// each container once, and makes each distinct model run once — 8 native
// runs (Fig 1, Fig 5, the model checker, Bio-PEPA's example, the
// user-supplied model and three on the independent host) and 28
// Singularity runs (4 build %test runs, 21 matrix cells — the build-host
// row doubling as the reference runs, Fig 1, Fig 5 and the badges —
// plus the model checker, the security probe and the user-supplied
// model).
func TestFullRunComputesEachFactOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	c := runCounted(t)
	for series, want := range map[string]float64{
		"runtime_native_runs_total":                   8,
		`runtime_runs_total{isolation="singularity"}`: 28,
		`runtime_builds_total{cached="false"}`:        4,
		`runtime_builds_total{cached="true"}`:         0,
		`hub_client_attempts_total{op="push"}`:        3,
	} {
		if got := c[series]; got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
}

// BenchmarkRepro times one full in-process repro run per iteration —
// every experiment, from building the containers to the badges — and
// reports the native and container runs each run makes.
func BenchmarkRepro(b *testing.B) {
	var native, container float64
	for i := 0; i < b.N; i++ {
		c := runCounted(b)
		native += c["runtime_native_runs_total"]
		container += c[`runtime_runs_total{isolation="singularity"}`] + c[`runtime_runs_total{isolation="docker"}`]
	}
	b.ReportMetric(native/float64(b.N), "native-runs/op")
	b.ReportMetric(container/float64(b.N), "container-runs/op")
}
