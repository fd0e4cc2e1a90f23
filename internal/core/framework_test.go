package core

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/pepa"
	"repro/internal/runtime"
)

func builderHost(t *testing.T) *hostenv.Host {
	t.Helper()
	h, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.InstallSingularity(); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRecipesParseAndBuild(t *testing.T) {
	f := New()
	host := builderHost(t)
	for _, tool := range Tools() {
		rcp, err := Recipe(tool)
		if err != nil {
			t.Fatalf("%s recipe: %v", tool, err)
		}
		if rcp.From != "centos:7.4" {
			t.Errorf("%s recipe base = %q", tool, rcp.From)
		}
		res, err := f.Build(tool, host)
		if err != nil {
			t.Fatalf("%s build: %v", tool, err)
		}
		if res.Digest == "" {
			t.Errorf("%s build has no digest", tool)
		}
		// The %test section verified the payload exists.
	}
}

func TestUnknownTool(t *testing.T) {
	if _, err := Recipe(Tool("fortran-analyzer")); err == nil {
		t.Error("unknown tool recipe accepted")
	}
	if _, err := Tool("x").Package(); err == nil {
		t.Error("unknown tool package accepted")
	}
}

func TestExampleModelsAreValid(t *testing.T) {
	// The PEPA examples must parse and check with the real engine.
	for _, src := range []string{SimplePEPAModel, ActiveBadgeModel, AlternatingBitModel, PCLAN4Model} {
		m, err := pepa.Parse(src)
		if err != nil {
			t.Fatalf("example does not parse: %v\n%s", err, src)
		}
		if res := pepa.Check(m); res.Err() != nil {
			t.Fatalf("example fails checks: %v", res.Err())
		}
	}
}

func TestEdinburghExampleModelsValidateInContainer(t *testing.T) {
	// §III: "a number of example models (including The PEPA Active Badge
	// Model, The Alternating Bit Protocol Model, and the PC LAN 4 Model)
	// were downloaded ... and tested both with and without container
	// functionality."
	f := New()
	host := builderHost(t)
	build, err := f.Build(ToolPEPA, host)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"activebadge.pepa": ActiveBadgeModel,
		"altbit.pepa":      AlternatingBitModel,
		"pclan4.pepa":      PCLAN4Model,
	}
	names := make([]string, 0, len(cases))
	for n := range cases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rep, err := f.Validate(context.Background(), ToolPEPA, host, build, name, cases[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Match {
			t.Errorf("%s: containerized output differs from native", name)
		}
		if !strings.Contains(rep.ContainerOut, "steady-state distribution") {
			t.Errorf("%s: no steady-state output:\n%s", name, rep.ContainerOut)
		}
	}
}

func TestValidatePEPANativeVsContainer(t *testing.T) {
	f := New()
	host := builderHost(t)
	build, err := f.Build(ToolPEPA, host)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Validate(context.Background(), ToolPEPA, host, build, "simple.pepa", SimplePEPAModel)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Errorf("native and containerized outputs differ:\n--- native ---\n%s\n--- container ---\n%s", rep.NativeOut, rep.ContainerOut)
	}
	if !strings.Contains(rep.NativeOut, "steady-state distribution") {
		t.Errorf("unexpected solver output: %q", rep.NativeOut)
	}
}

func TestValidateAllToolsOnBuildHost(t *testing.T) {
	f := New()
	host := builderHost(t)
	builds, err := f.BuildAll(host)
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range Tools() {
		ex := ExampleModel(tool)
		rep, err := f.Validate(context.Background(), tool, host, builds[tool], ex.Name, ex.Source, ex.Args...)
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		if !rep.Match {
			t.Errorf("%s: container output differs from native", tool)
		}
		if rep.ContainerOut == "" {
			t.Errorf("%s: empty output", tool)
		}
	}
}

func TestValidateCDFArguments(t *testing.T) {
	// The passage-time mode used by the robustness replication also runs
	// identically in the container.
	f := New()
	host := builderHost(t)
	build, err := f.Build(ToolPEPA, host)
	if err != nil {
		t.Fatal(err)
	}
	src := "r = 0.5;\nP0 = (step, r).P1;\nP1 = (step, r).PDone;\nPDone = (done, 0.000001).PDone;\nP0\n"
	rep, err := f.Validate(context.Background(), ToolPEPA, host, build, "chain.pepa", src, "cdf", "PDone", "10", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Errorf("CDF outputs differ:\n%s\nvs\n%s", rep.NativeOut, rep.ContainerOut)
	}
	if !strings.Contains(rep.ContainerOut, "passage-time CDF") {
		t.Errorf("output = %q", rep.ContainerOut)
	}
}

func TestValidationMatrix(t *testing.T) {
	f := New()
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	client := hub.NewClient(ts.URL)
	entries, err := f.ValidationMatrix(client)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7*3 {
		t.Fatalf("matrix entries = %d, want 21", len(entries))
	}
	nativeFailures := 0
	for _, e := range entries {
		if !e.DigestMatch {
			t.Errorf("%s on %s: digest mismatch", e.Tool, e.Host)
		}
		if !e.OutputMatch {
			t.Errorf("%s on %s: output mismatch", e.Tool, e.Host)
		}
		if !e.NativeInstallOK {
			nativeFailures++
			if e.NativeErr == "" {
				t.Errorf("%s on %s: native failure with no error recorded", e.Tool, e.Host)
			}
		}
	}
	// The paper's motivation requires at least one platform where the
	// native install fails while the container works.
	if nativeFailures == 0 {
		t.Error("no native-install failures in matrix; motivation experiment vacuous")
	}
	table := FormatMatrix(entries)
	if !strings.Contains(table, "ubuntu-18.04-bionic") || !strings.Contains(table, "FAIL") {
		t.Errorf("matrix table incomplete:\n%s", table)
	}
}

func TestScalabilitySweepInContainer(t *testing.T) {
	// The Fig 5 sweep experiment runs identically inside the GPA container
	// (seven runscript arguments exercise the extended ARG passing).
	f := New()
	host := builderHost(t)
	build, err := f.Build(ToolGPA, host)
	if err != nil {
		t.Fatal(err)
	}
	ex := ExampleModel(ToolGPA)
	rep, err := f.Validate(context.Background(), ToolGPA, host, build, ex.Name, ex.Source,
		"sweep", "Servers", "Server", "5,10,40,80", "300", "request")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Errorf("sweep outputs differ:\n%s\nvs\n%s", rep.NativeOut, rep.ContainerOut)
	}
	if !strings.Contains(rep.ContainerOut, "saturation at count") {
		t.Errorf("output:\n%s", rep.ContainerOut)
	}
}

func TestFutureWorkModelCheckerContainer(t *testing.T) {
	// §IV future work realized: a fourth containerized tool (the CSL-style
	// model checker) goes through the same build/validate pipeline.
	f := New()
	host := builderHost(t)
	build, err := f.Build(ToolMC, host)
	if err != nil {
		t.Fatal(err)
	}
	props := "S >= 0.8 [ \"Proc\" ]\nT >= 2 [ serve ]\n"
	rep, err := f.ValidateWithFiles(context.Background(), ToolMC, host, build, "simple.pepa", map[string]string{
		"simple.pepa": SimplePEPAModel,
		"props.csl":   props,
	}, "props.csl")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Errorf("model-checker container output differs from native:\n%s\nvs\n%s",
			rep.NativeOut, rep.ContainerOut)
	}
	if !strings.Contains(rep.ContainerOut, "2/2 properties hold") {
		t.Errorf("unexpected checker output:\n%s", rep.ContainerOut)
	}
}

func TestContainerRunsOnHostWhereNativeFails(t *testing.T) {
	// The headline: on Ubuntu 18.04 the native PEPA install fails, but the
	// container built on CentOS runs and produces the reference output.
	f := New()
	builder := builderHost(t)
	build, err := f.Build(ToolPEPA, builder)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := f.Validate(context.Background(), ToolPEPA, builder, build, "simple.pepa", SimplePEPAModel)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := hostenv.ByName(hostenv.Ubuntu1804)
	if err != nil {
		t.Fatal(err)
	}
	if err := skewed.InstallSingularity(); err != nil {
		t.Fatal(err)
	}
	if err := skewed.NativeInstall("pepa-eclipse-plugin"); err == nil {
		t.Fatal("precondition: native install should fail on ubuntu 18.04")
	}
	if err := skewed.FS.MkdirAll("/home/modeler/models", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := skewed.FS.WriteFile("/home/modeler/models/simple.pepa", []byte(SimplePEPAModel), 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := f.Engine.Run(build.Image, skewed, runtime.RunOptions{
		Isolation: runtime.IsolationSingularity,
		Args:      []string{"/data/simple.pepa"},
		Binds:     []runtime.Bind{{HostPath: "/home/modeler/models", ContainerPath: "/data"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stdout != refRep.ContainerOut {
		t.Error("containerized output differs between build host and skewed host")
	}
}
