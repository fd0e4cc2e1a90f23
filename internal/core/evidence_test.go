package core

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/runctx"
)

// TestBuildAllExecutesEachStageOnce: the three concurrent builds of a
// fresh engine share the centos:7.4 base stage, which must execute once
// and be replayed by the other two builds; each tool's %post stage
// executes once: builds that miss a stage concurrently must not both
// execute it.
func TestBuildAllExecutesEachStageOnce(t *testing.T) {
	f := New()
	reg := obs.NewRegistry()
	f.SetObs(reg)
	builds, err := f.BuildAll(builderHost(t))
	if err != nil {
		t.Fatal(err)
	}
	executed, replayed := 0, 0
	for _, b := range builds {
		executed += b.StagesExecuted
		replayed += b.StagesReplayed
	}
	distinct := 1 + len(Tools()) // the shared base stage + one %post per tool
	if executed != distinct || replayed != len(Tools())-1 {
		t.Errorf("stages executed=%d replayed=%d, want %d and %d", executed, replayed, distinct, len(Tools())-1)
	}
	if got := reg.Counter("runtime_build_stages_total", obs.L("outcome", "executed")); got != float64(distinct) {
		t.Errorf("runtime_build_stages_total{executed} = %g, want %d", got, distinct)
	}
}

// TestValidateSharesRuns: concurrent identical validations make one
// native and one container run; a validation under a canceled context
// runs nothing and leaves nothing behind.
func TestValidateSharesRuns(t *testing.T) {
	f := New()
	reg := obs.NewRegistry()
	f.SetObs(reg)
	host := builderHost(t)
	build, err := f.Build(ToolPEPA, host)
	if err != nil {
		t.Fatal(err)
	}
	containerRuns := func() float64 {
		return reg.Counter("runtime_runs_total", obs.L("isolation", "singularity")) - 1 // minus the build's %test
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Validate(canceled, ToolPEPA, host, build, "simple.pepa", SimplePEPAModel); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled validation: err = %v", err)
	}
	if n, c := reg.Counter("runtime_native_runs_total"), containerRuns(); n != 0 || c != 0 {
		t.Fatalf("canceled validation ran %g native and %g container runs", n, c)
	}
	var wg sync.WaitGroup
	reports := make([]*ValidationReport, 8)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], _ = f.Validate(context.Background(), ToolPEPA, host, build, "simple.pepa", SimplePEPAModel)
		}(i)
	}
	wg.Wait()
	for i, rep := range reports {
		if rep == nil || !rep.Match || rep.ContainerOut != reports[0].ContainerOut || rep.Digest != build.Digest {
			t.Fatalf("report %d: %+v", i, rep)
		}
	}
	if n, c := reg.Counter("runtime_native_runs_total"), containerRuns(); n != 1 || c != 1 {
		t.Errorf("8 identical validations ran %g native and %g container runs, want 1 and 1", n, c)
	}
}

// TestAssessBadgesCanceled: a canceled context stops the assessment
// before anything is built, pushed or run.
func TestAssessBadgesCanceled(t *testing.T) {
	f := New()
	reg := obs.NewRegistry()
	f.SetObs(reg)
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := f.AssessBadges(ctx, hub.NewClient(ts.URL))
	var ec *runctx.ErrCanceled
	if !errors.As(err, &ec) || report != nil {
		t.Fatalf("AssessBadges on a canceled context = %v, %v; want a *runctx.ErrCanceled", report, err)
	}
	snap := reg.Snapshot()
	for series := range snap.Counters {
		if series != `cancellations_total{cause="canceled",op="core.badges"}` {
			t.Errorf("canceled assessment did work: %s = %g", series, snap.Counters[series])
		}
	}
	if len(snap.Spans) != 0 {
		t.Errorf("canceled assessment opened %d spans", len(snap.Spans))
	}
}

// TestMatrixAndMotivationShareInstallVerdicts: the matrix's
// native-install column reads the same verdicts NativeInstall reports.
func TestMatrixAndMotivationShareInstallVerdicts(t *testing.T) {
	f := New()
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler())
	defer ts.Close()
	entries, err := f.ValidationMatrix(hub.NewClient(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		err := f.NativeInstall(context.Background(), e.Host, e.Tool)
		if (err == nil) != e.NativeInstallOK || (err != nil && err.Error() != e.NativeErr) {
			t.Errorf("%s/%s: matrix says ok=%v %q, NativeInstall says %v", e.Host, e.Tool, e.NativeInstallOK, e.NativeErr, err)
		}
	}
}
