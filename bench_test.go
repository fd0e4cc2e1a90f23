// Package repro's benchmark harness regenerates every table and figure of
// the paper as a testing.B benchmark (see DESIGN.md §3 for the experiment
// index). Run with:
//
//	go test -bench=. -benchmem
//
// The container-pipeline benchmarks additionally report domain metrics
// (native-vs-container overhead ratio, states/sec) via b.ReportMetric.
package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/gpepa"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/numeric/sparse"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/robustness"
	"repro/internal/runtime"
)

// --- Table I ---------------------------------------------------------------

// BenchmarkTableIMappingModels builds and derives the PEPA models of all
// five machines under both mappings of Table I.
func BenchmarkTableIMappingModels(b *testing.B) {
	s := robustness.NewStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mapping := range []string{robustness.MappingA, robustness.MappingB} {
			for j := 0; j < robustness.NumMachines; j++ {
				m, err := s.MachineModel(mapping, j, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := derive.Explore(m, derive.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- Fig 1: container validation of the simple PEPA model -------------------

func BenchmarkFig1ContainerValidation(b *testing.B) {
	fw := core.New()
	host := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A distinct comment per iteration gives every run its own memo
		// key, so each iteration runs natively and in the container.
		src := fmt.Sprintf("%s// iteration %d\n", core.SimplePEPAModel, i)
		rep, err := fw.Validate(context.Background(), core.ToolPEPA, host, build, "simple.pepa", src)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Match {
			b.Fatal("validation mismatch")
		}
	}
}

// --- Fig 2: activity diagram ------------------------------------------------

func BenchmarkFig2ActivityDiagram(b *testing.B) {
	s := robustness.NewStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dot, err := s.ActivityDiagram(robustness.MappingA, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(dot, "digraph") {
			b.Fatal("bad diagram")
		}
	}
}

// --- Figs 3 and 4: finishing-time CDFs --------------------------------------

func benchCDF(b *testing.B, mapping string) {
	s := robustness.NewStudy()
	times := make([]float64, 61)
	for i := range times {
		times[i] = float64(i) * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf, err := s.FinishingCDF(mapping, 0, times)
		if err != nil {
			b.Fatal(err)
		}
		if last := cdf.Probs[len(cdf.Probs)-1]; last < 0.9 {
			b.Fatalf("CDF did not approach 1: %g", last)
		}
	}
}

func BenchmarkFig3CDFMappingA(b *testing.B) { benchCDF(b, robustness.MappingA) }
func BenchmarkFig4CDFMappingB(b *testing.B) { benchCDF(b, robustness.MappingB) }

// --- Fig 5: client/server scalability fluid analysis ------------------------

func BenchmarkFig5ClientServerScalability(b *testing.B) {
	m := gpepa.MustParse(core.ClientServerGPEPAModel)
	sys, err := gpepa.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Solve(50, 100, gpepa.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Final()
	}
}

// --- Fig 6: hub push/list/pull ----------------------------------------------

func BenchmarkFig6HubPullAll(b *testing.B) {
	fw := core.New()
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	client := hub.NewClient(ts.URL)
	pub, err := fw.Publish(context.Background(), client)
	if err != nil {
		b.Fatal(err)
	}
	digests := pub.Digests
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tool := range core.Tools() {
			if _, _, err := client.Pull(fw.Collection, string(tool), "latest", digests[tool]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- §III: the full validation matrix ---------------------------------------

func BenchmarkValidationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fw := core.New()
		ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
		entries, err := fw.ValidationMatrix(hub.NewClient(ts.URL))
		ts.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) != 21 {
			b.Fatalf("entries = %d", len(entries))
		}
	}
}

// --- Motivation: native install vs container pull ---------------------------

func BenchmarkNativeInstallVsContainerPull(b *testing.B) {
	fw := core.New()
	builder := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, builder)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	client := hub.NewClient(ts.URL)
	digest, err := client.Push(fw.Collection, build.Image)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("native-install-where-it-works", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := mustHost(b, hostenv.CentOS76)
			if err := h.NativeInstall("pepa-eclipse-plugin"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native-install-failure-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := mustHost(b, hostenv.Ubuntu1804)
			if err := h.NativeInstall("pepa-eclipse-plugin"); err == nil {
				b.Fatal("expected failure")
			}
		}
	})
	b.Run("container-pull-anywhere", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := client.Pull(fw.Collection, "pepa", "latest", digest); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- [32][33]: containerization overhead ------------------------------------

// BenchmarkContainerOverhead compares solving the same PEPA model natively
// and inside the container, reporting the overhead ratio.
func BenchmarkContainerOverhead(b *testing.B) {
	fw := core.New()
	host := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		b.Fatal(err)
	}
	if err := host.FS.MkdirAll("/home/modeler/models", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := host.FS.WriteFile("/home/modeler/models/m.pepa", []byte(core.SimplePEPAModel), 0o644); err != nil {
		b.Fatal(err)
	}

	var nativeNs, containerNs float64
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fw.Engine.NativeRun("pepa-solver", []string{"/home/modeler/models/m.pepa"}, host); err != nil {
				b.Fatal(err)
			}
		}
		nativeNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("containerized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := fw.Engine.Run(build.Image, host, runtime.RunOptions{
				Isolation: runtime.IsolationSingularity,
				Args:      []string{"/data/m.pepa"},
				Binds:     []runtime.Bind{{HostPath: "/home/modeler/models", ContainerPath: "/data"}},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		containerNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if nativeNs > 0 {
			b.ReportMetric(containerNs/nativeNs, "overhead-ratio")
		}
	})
}

// --- Micro-benchmarks of the numerical core ---------------------------------

func BenchmarkSpMV(b *testing.B) {
	n := 10000
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	m := coo.ToCSR()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) * 0.3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

func BenchmarkSteadyStateBirthDeath(b *testing.B) {
	k := 200
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 1
		rates[[2]int{i + 1, i}] = 2
	}
	c := ctmc.NewChain(k+1, rates)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyState(ctmc.SteadyStateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformizationTransient(b *testing.B) {
	k := 100
	rates := map[[2]int]float64{}
	for i := 0; i < k; i++ {
		rates[[2]int{i, i + 1}] = 2
		rates[[2]int{i + 1, i}] = 1
	}
	c := ctmc.NewChain(k+1, rates)
	p0 := c.PointMass(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(p0, 10, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerivation measures state-space exploration throughput on a
// product-form model (4 parallel 3-state components = 81 states).
func BenchmarkDerivation(b *testing.B) {
	var src strings.Builder
	names := []string{"A", "B", "C", "D"}
	for _, n := range names {
		fmt.Fprintf(&src, "%s0 = (x%s, 1).%s1; %s1 = (y%s, 2).%s2; %s2 = (z%s, 3).%s0;\n",
			n, n, n, n, n, n, n, n, n)
	}
	src.WriteString("A0 || B0 || C0 || D0")
	m := pepa.MustParse(src.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := derive.Explore(m, derive.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ss.NumStates() != 81 {
			b.Fatalf("states = %d", ss.NumStates())
		}
	}
	b.ReportMetric(float64(81*b.N)/b.Elapsed().Seconds(), "states/s")
}

func BenchmarkGPEPAFluidDerivative(b *testing.B) {
	m := gpepa.MustParse(core.ClientServerGPEPAModel)
	sys, err := gpepa.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	x := append([]float64(nil), sys.X0...)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Derivative(x, dst)
	}
}

func BenchmarkGPEPASimulation(b *testing.B) {
	m := gpepa.MustParse(core.ClientServerGPEPAModel)
	sys, err := gpepa.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Simulate(10, 10, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageDigest(b *testing.B) {
	fw := core.New()
	host := mustHost(b, hostenv.BuildHost)
	build, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build.Image.Digest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerBuild(b *testing.B) {
	host := mustHost(b, hostenv.BuildHost)
	b.Run("cold", func(b *testing.B) {
		fw := core.New()
		fw.Engine.CacheDisabled = true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fw.Build(core.ToolPEPA, host); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		fw := core.New()
		if _, err := fw.Build(core.ToolPEPA, host); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fw.Build(core.ToolPEPA, host); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustHost(b *testing.B, name string) *hostenv.Host {
	b.Helper()
	h, err := hostenv.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.InstallSingularity(); err != nil {
		b.Fatal(err)
	}
	return h
}
