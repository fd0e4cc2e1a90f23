// Package core implements the paper's contribution: the container-based
// reproducibility framework for stochastic-process-algebra tooling. It
// wires the pieces together —
//
//	recipes (internal/recipe) -> build (internal/runtime) ->
//	push/pull (internal/hub) -> run on host profiles (internal/hostenv) ->
//	compare containerized vs native solver output
//
// — and exposes the two headline experiments:
//
//   - Validate: run a model natively and inside the container on the same
//     host and check byte-identical output (Fig 1 / Fig 5 validation);
//   - ValidationMatrix: build once on the CentOS 7.4 build host, push to
//     the hub, pull and run on every host profile of §III, and verify both
//     the image digests and the solver outputs agree everywhere.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pkgmgr"
	"repro/internal/recipe"
	"repro/internal/runctx"
	"repro/internal/runtime"
)

// Tool identifies one of the three containerized applications.
type Tool string

// The containerized tools of the paper, plus the §IV future-work addition.
const (
	ToolPEPA    Tool = "pepa"
	ToolBioPEPA Tool = "biopepa"
	ToolGPA     Tool = "gpa"
	// ToolMC is the CSL-style model checker — the paper's future work
	// ("identification and containerization of other ... process calculi
	// modeling tools") realized.
	ToolMC Tool = "pepa-mc"
)

// Tools lists the paper's three tools in canonical order (the validation
// matrix of §III covers exactly these).
func Tools() []Tool { return []Tool{ToolPEPA, ToolBioPEPA, ToolGPA} }

// ExtendedTools additionally includes the future-work model checker.
func ExtendedTools() []Tool { return []Tool{ToolPEPA, ToolBioPEPA, ToolGPA, ToolMC} }

// toolSpec couples a tool with its recipe ingredients.
type toolSpec struct {
	pkg     string // distro package installed in %post
	binary  string // path of the app binary inside the container
	app     string // runtime app name
	testCmd string // %test command
}

var specs = map[Tool]toolSpec{
	ToolPEPA: {
		pkg:     pkgmgr.PkgPEPAPlugin,
		binary:  "/usr/local/bin/pepa-solver",
		app:     apps.PEPAApp,
		testCmd: "test -e /opt/eclipse/plugins/pepa.jar",
	},
	ToolBioPEPA: {
		pkg:     pkgmgr.PkgBioPEPA,
		binary:  "/usr/local/bin/biopepa-solver",
		app:     apps.BioPEPAApp,
		testCmd: "test -e /opt/eclipse/plugins/biopepa.jar",
	},
	ToolGPA: {
		pkg:     pkgmgr.PkgGPAnalyser,
		binary:  "/usr/local/bin/gpa",
		app:     apps.GPAApp,
		testCmd: "test -e /opt/gpa/gpa.jar",
	},
	ToolMC: {
		pkg:     pkgmgr.PkgModelChecker,
		binary:  "/usr/local/bin/pepa-mc",
		app:     apps.MCApp,
		testCmd: "test -e /opt/pepa-mc/mc.jar",
	},
}

// Package returns the distro package backing a tool.
func (t Tool) Package() (string, error) {
	s, ok := specs[t]
	if !ok {
		return "", fmt.Errorf("core: unknown tool %q", t)
	}
	return s.pkg, nil
}

// Recipe generates the Singularity definition file for a tool. These are
// the "build recipes on GitHub" of the paper.
func Recipe(t Tool) (*recipe.Recipe, error) {
	s, ok := specs[t]
	if !ok {
		return nil, fmt.Errorf("core: unknown tool %q", t)
	}
	src := fmt.Sprintf(`Bootstrap: library
From: centos:7.4

%%help
    Containerized %s modelling tool.
    Bind a model directory to /data and pass the model path plus
    analysis arguments: run <model> [analysis args...].

%%labels
    Maintainer repro
    Tool %s
    SingularityVersion 2.5.2

%%environment
    export LC_ALL=C

%%post
    pkg install %s
    mkdir -p /data /usr/local/bin
    echo '#!app:%s' > %s
    chmod 755 %s

%%runscript
    %s $ARG1 $ARG2 $ARG3 $ARG4 $ARG5 $ARG6 $ARG7 $ARG8

%%test
    %s
`, t, t, s.pkg, s.app, s.binary, s.binary, s.binary, s.testCmd)
	return recipe.Parse(src)
}

// Framework is the reproducibility harness.
type Framework struct {
	Engine *runtime.Engine
	// Collection is the hub collection name ("pepa-containers" mirrors the
	// paper's Singularity-Hub collection 2351).
	Collection string
	// Obs, when non-nil, receives one span per pipeline stage per tool
	// (build, push, validate runs, matrix cells). Span methods are
	// nil-safe, so an uninstrumented framework pays nothing.
	Obs *obs.Registry

	// The shared evidence (evidence.go): run outputs by run key,
	// native-install failures by (profile, package), and one
	// publication per hub client.
	runs      par.Memo[string, string]
	installs  par.Memo[[2]string, string]
	published par.Memo[*hub.Client, *Publication]
}

// SetObs attaches a metrics registry to the framework and its engine.
func (f *Framework) SetObs(reg *obs.Registry) {
	f.Obs = reg
	if f.Engine != nil {
		f.Engine.Obs = reg
	}
}

// New creates a framework with all applications registered.
func New() *Framework {
	e := runtime.NewEngine()
	apps.RegisterAll(e)
	return &Framework{Engine: e, Collection: "pepa-containers"}
}

// Build builds the container for one tool on a host.
func (f *Framework) Build(t Tool, host *hostenv.Host) (*runtime.BuildResult, error) {
	return f.BuildCtx(context.Background(), t, host)
}

// BuildCtx is Build with cooperative cancellation threaded into the
// engine's stage boundaries.
func (f *Framework) BuildCtx(ctx context.Context, t Tool, host *hostenv.Host) (*runtime.BuildResult, error) {
	rcp, err := Recipe(t)
	if err != nil {
		return nil, err
	}
	return f.Engine.BuildCtx(ctx, rcp, host, runtime.BuildContext{}, string(t), "latest")
}

// BuildAll builds the paper's three containers in parallel (the builds share only
// read-only engine state; digests are content-addressed, so concurrency
// cannot change the result), returning results keyed by tool.
func (f *Framework) BuildAll(host *hostenv.Host) (map[Tool]*runtime.BuildResult, error) {
	return f.BuildAllCtx(context.Background(), host)
}

// BuildAllCtx is BuildAll with cooperative cancellation: no new build
// starts once ctx is done, and running builds stop at their next stage
// boundary. An interrupted run returns a *runctx.ErrCanceled whose
// Partial is the map of builds that did complete.
func (f *Framework) BuildAllCtx(ctx context.Context, host *hostenv.Host) (map[Tool]*runtime.BuildResult, error) {
	tools := Tools()
	stage := f.Obs.StartSpan("core.build_all")
	defer stage.End()
	results, err := par.MapOpt(len(tools), par.Options{Ctx: ctx}, func(i int) (*runtime.BuildResult, error) {
		sp := stage.StartSpan("build:" + string(tools[i]))
		defer sp.End()
		res, err := f.BuildCtx(ctx, tools[i], host)
		if err != nil {
			return nil, fmt.Errorf("core: building %s: %w", tools[i], err)
		}
		return res, nil
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			partial := map[Tool]*runtime.BuildResult{}
			for i, t := range tools {
				if results[i] != nil {
					partial[t] = results[i]
				}
			}
			runctx.Record(f.Obs, "core.build-all", cerr)
			ec := runctx.New("core.build-all", cerr, len(partial), len(tools), "builds")
			ec.Partial = partial
			return nil, ec
		}
		var merr *par.MultiError
		if errors.As(err, &merr) && len(merr.Errs) > 0 {
			return nil, fmt.Errorf("par: %w", merr.Errs[0])
		}
		return nil, err
	}
	out := map[Tool]*runtime.BuildResult{}
	for i, t := range tools {
		out[t] = results[i]
	}
	return out, nil
}

// pushAll pushes built images to a hub, returning digests by tool and
// each failed tool's error. It degrades gracefully: every tool is
// attempted (a panicking push fails only its tool), none once ctx is
// done, and any failure also comes back aggregated in a *par.MultiError.
func (f *Framework) pushAll(ctx context.Context, client *hub.Client, builds map[Tool]*runtime.BuildResult) (map[Tool]string, map[Tool]error, error) {
	tools := Tools()
	perTool := make([]string, len(tools))
	perErr := make([]error, len(tools))
	stage := f.Obs.StartSpan("core.push_all")
	defer stage.End()
	err := par.ForEachOpt(len(tools), par.Options{}, func(i int) (err error) {
		t := tools[i]
		sp := stage.StartSpan("push:" + string(t))
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: pushing %s: panic: %v", t, r)
			}
			perErr[i] = err
			sp.End()
		}()
		b, ok := builds[t]
		switch {
		case !ok:
			return fmt.Errorf("core: no build for %s", t)
		case ctx.Err() != nil:
			return fmt.Errorf("core: pushing %s: %w", t, ctx.Err())
		}
		d, err := client.Push(f.Collection, b.Image)
		if err != nil {
			return fmt.Errorf("core: pushing %s: %w", t, err)
		}
		perTool[i] = d
		return nil
	})
	digests, errs := map[Tool]string{}, map[Tool]error{}
	for i, t := range tools {
		if perErr[i] != nil {
			errs[t] = perErr[i]
		} else {
			digests[t] = perTool[i]
		}
	}
	return digests, errs, err
}

// modelDir is where Validate places model files on the host, bound to
// /data inside the container.
const (
	hostModelDir      = "/home/modeler/models"
	containerModelDir = "/data"
)

// ValidationReport is the outcome of one native-vs-container comparison.
type ValidationReport struct {
	Tool         Tool
	Host         string
	ModelPath    string
	Args         []string
	NativeOut    string
	ContainerOut string
	Match        bool
	Digest       string
}

// Validate runs a model through a tool both natively and inside its
// container on the same host and compares the outputs byte for byte —
// the Fig 1 / Fig 5 validation methodology. Both runs come from the
// framework's shared evidence, so a run already made by another
// experiment is read, not repeated.
func (f *Framework) Validate(ctx context.Context, t Tool, host *hostenv.Host, build *runtime.BuildResult, modelName, modelSrc string, args ...string) (*ValidationReport, error) {
	return f.ValidateWithFiles(ctx, t, host, build, modelName, map[string]string{modelName: modelSrc}, args...)
}

// ValidateWithFiles is Validate for tools needing several input files
// (e.g. the model checker's model + properties): every file in files is
// written to the host model directory and bound to /data; mainFile names
// the first argument; extra args that name files must use their bare file
// names (they are rewritten per run location).
func (f *Framework) ValidateWithFiles(ctx context.Context, t Tool, host *hostenv.Host, build *runtime.BuildResult, mainFile string, files map[string]string, args ...string) (*ValidationReport, error) {
	return f.validate(ctx, host, build.Image, build.Digest, runInput{tool: t, mainFile: mainFile, files: files, args: args})
}

// validate compares the native and container runs of in on host, where
// digest is img's content digest (from its build or verified pull).
func (f *Framework) validate(ctx context.Context, host *hostenv.Host, img *image.Image, digest string, in runInput) (*ValidationReport, error) {
	t := in.tool
	if _, ok := specs[t]; !ok {
		return nil, fmt.Errorf("core: unknown tool %q", t)
	}
	if _, ok := in.files[in.mainFile]; !ok {
		return nil, fmt.Errorf("core: main file %q not among provided files", in.mainFile)
	}
	stage := f.Obs.StartSpan("core.validate:" + string(t))
	defer stage.End()
	nativeOut, err := f.run(ctx, stage, host, nil, "", in)
	if err != nil {
		return nil, fmt.Errorf("core: native run of %s on %s: %w", t, host.Name, err)
	}
	containerOut, err := f.run(ctx, stage, host, img, digest, in)
	if err != nil {
		return nil, fmt.Errorf("core: container run of %s on %s: %w", t, host.Name, err)
	}
	// The only permitted difference is the model path echoed nowhere in
	// our report formats, so outputs must be identical.
	return &ValidationReport{
		Tool: t, Host: host.Name, ModelPath: hostModelDir + "/" + in.mainFile, Args: in.args,
		NativeOut: nativeOut, ContainerOut: containerOut,
		Match:  nativeOut == containerOut,
		Digest: digest,
	}, nil
}

// exampleRun is the canned example model of a tool as a run input.
func exampleRun(t Tool) runInput {
	ex := ExampleModel(t)
	return runInput{tool: t, mainFile: ex.Name, files: map[string]string{ex.Name: ex.Source}, args: ex.Args}
}

// FailureClass tags a failed matrix cell with the retry taxonomy of
// docs/RESILIENCE.md.
type FailureClass string

const (
	// FailureTransient cells failed on infrastructure weather
	// (connection errors, 5xx, corrupt transfers) and may pass on a
	// re-run.
	FailureTransient FailureClass = "transient"
	// FailureDeterministic cells will fail identically every run
	// (bad configuration, malformed images, panics).
	FailureDeterministic FailureClass = "deterministic"
	// FailureCanceled cells were never computed because the run's
	// context was canceled or hit its deadline; a re-run with a fresh
	// context computes them normally.
	FailureCanceled FailureClass = "canceled"
)

// MatrixEntry is one cell of the cross-platform validation matrix.
type MatrixEntry struct {
	Tool   Tool
	Host   string
	Digest string
	// DigestMatch: the pulled image's digest equals the build digest.
	DigestMatch bool
	// OutputMatch: the containerized output on this host equals the
	// containerized output on the build host.
	OutputMatch bool
	// NativeInstallOK: whether installing the tool natively from this
	// host's own repository would have succeeded (the motivation column).
	NativeInstallOK bool
	NativeErr       string
	// Err, when non-empty, records why this cell could not be computed;
	// the matrix run continues past it (partial report).
	Err string
	// FailureClass classifies Err as transient vs deterministic.
	FailureClass FailureClass
	// Attempts is the hub client's attempt log for this cell's pull,
	// when the failure happened in the distribution layer.
	Attempts []string
}

// Failed reports whether the cell could not be computed.
func (e *MatrixEntry) Failed() bool { return e.Err != "" }

// failCell marks an entry as failed, classifying the error and, for hub
// failures, attaching the relevant slice of the client attempt log.
func failCell(entry MatrixEntry, client *hub.Client, op string, err error) MatrixEntry {
	entry.Err = err.Error()
	entry.FailureClass = FailureDeterministic
	if hub.Classify(err) == hub.ClassTransient {
		entry.FailureClass = FailureTransient
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		entry.FailureClass = FailureCanceled
	}
	if client != nil && op != "" {
		entry.Attempts = client.AttemptsMatching(op)
	}
	return entry
}

// ValidationMatrix reproduces the §III experiment: build all containers on
// the build host, push them to a hub, then on every profile pull (with
// digest verification) and run the canned example model, comparing output
// against the build host's run. It also records whether a native install
// would have succeeded on each profile. The build and push are the
// framework's publication for client, and every run and native-install
// verdict comes from the shared evidence.
//
// The matrix degrades gracefully under partial failure: a failing push,
// pull, run, or even a panicking task yields a classified MatrixEntry
// (transient vs deterministic, with the hub attempt log) while the rest
// of the matrix completes. Only build-host setup failures — without
// which there is nothing to compare against — abort the whole run.
func (f *Framework) ValidationMatrix(client *hub.Client) ([]MatrixEntry, error) {
	return f.ValidationMatrixCtx(context.Background(), client)
}

// ValidationMatrixCtx is ValidationMatrix with cooperative cancellation.
// Cancellation mid-run degrades exactly like any other partial failure:
// cells not yet computed are skipped, cells interrupted in flight are
// classified FailureCanceled, and the computed rows are returned as the
// Partial of a *runctx.ErrCanceled.
func (f *Framework) ValidationMatrixCtx(ctx context.Context, client *hub.Client) ([]MatrixEntry, error) {
	pub, err := f.Publish(ctx, client)
	if pub == nil {
		return nil, err
	}
	matrix := f.Obs.StartSpan("core.validation_matrix")
	defer matrix.End()
	// The host profiles are independent (each gets a fresh filesystem and
	// its own pulls over the concurrency-safe HTTP client), so the matrix
	// rows compute in parallel — one worker per host, rows assembled in
	// profile order. The per-host fn never returns an error: every
	// failure lands in its cell.
	names := hostenv.Names()
	perHost, err := par.MapOpt(len(names), par.Options{Ctx: ctx}, func(h int) ([]MatrixEntry, error) {
		rows := make([]MatrixEntry, 0, len(Tools()))
		host, herr := readyHost(names[h])
		for _, t := range Tools() {
			entry := MatrixEntry{Tool: t, Host: names[h]}
			switch {
			case herr != nil:
				rows = append(rows, failCell(entry, nil, "", herr))
			case pub.PushErr[t] != nil:
				rows = append(rows, failCell(entry, nil, "", pub.PushErr[t]))
			default:
				rows = append(rows, f.matrixCell(ctx, matrix, client, pub, host, t))
			}
		}
		return rows, nil
	})
	var out []MatrixEntry
	for _, rows := range perHost {
		out = append(out, rows...)
	}
	if cerr := ctx.Err(); cerr != nil {
		runctx.Record(f.Obs, "core.validation-matrix", cerr)
		ec := runctx.New("core.validation-matrix", cerr, len(out), len(names)*len(Tools()), "cells")
		ec.Partial = out
		return out, ec
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// matrixCell computes one (host, tool) cell. Its reference is the
// example's container run on the build host — one shared run, which the
// build-host row's cells also are. It is panic-supervised: a panicking
// pull or run yields a deterministic-classified failure entry instead
// of killing the matrix worker.
func (f *Framework) matrixCell(ctx context.Context, parent *obs.Span, client *hub.Client, pub *Publication, host *hostenv.Host, t Tool) (entry MatrixEntry) {
	entry = MatrixEntry{Tool: t, Host: host.Name}
	sp := parent.StartSpan(fmt.Sprintf("cell:%s/%s", host.Name, t))
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			entry.Err = fmt.Sprintf("panic: %v", r)
			entry.FailureClass = FailureDeterministic
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return failCell(entry, nil, "", fmt.Errorf("core: cell %s/%s: %w", host.Name, t, cerr))
	}
	b := pub.Builds[t]
	reference, err := f.run(ctx, nil, pub.Builder, b.Image, b.Digest, exampleRun(t))
	if err != nil {
		return failCell(entry, nil, "", fmt.Errorf("core: reference run of %s: %w", t, err))
	}
	if nerr := f.NativeInstall(ctx, host.Name, t); nerr != nil {
		entry.NativeErr = nerr.Error()
	} else {
		entry.NativeInstallOK = true
	}
	pullOp := fmt.Sprintf("pull %s/%s:latest", f.Collection, t)
	img, gotDigest, err := client.Pull(f.Collection, string(t), "latest", pub.Digests[t])
	if err != nil {
		return failCell(entry, client, pullOp, fmt.Errorf("core: pulling %s on %s: %w", t, host.Name, err))
	}
	entry.Digest = gotDigest
	entry.DigestMatch = gotDigest == pub.Digests[t]
	out, err := f.run(ctx, nil, host, img, gotDigest, exampleRun(t))
	if err != nil {
		return failCell(entry, nil, "", fmt.Errorf("core: running %s on %s: %w", t, host.Name, err))
	}
	entry.OutputMatch = out == reference
	return entry
}

// readyHost returns a fresh instance of the named profile with the
// container runtime installed.
func readyHost(name string) (*hostenv.Host, error) {
	host, err := hostenv.ByName(name)
	if err != nil {
		return nil, err
	}
	if err := host.InstallSingularity(); err != nil {
		return nil, fmt.Errorf("core: installing runtime on %s: %w", name, err)
	}
	return host, nil
}

// FormatMatrix renders the validation matrix as a text table. Cells
// that could not be computed render ERR columns followed by indented
// classification and attempt-log detail lines — the partial report.
func FormatMatrix(entries []MatrixEntry) string {
	var b strings.Builder
	b.WriteString("host\ttool\tnative-install\tdigest-ok\toutput-ok\n")
	failed := 0
	for _, e := range entries {
		native := "FAIL"
		if e.NativeInstallOK {
			native = "ok"
		}
		if e.Failed() {
			failed++
			fmt.Fprintf(&b, "%s\t%s\t%s\tERR\tERR\n", e.Host, e.Tool, native)
			fmt.Fprintf(&b, "    !! %s failure: %s\n", e.FailureClass, e.Err)
			for _, a := range e.Attempts {
				fmt.Fprintf(&b, "       %s\n", a)
			}
			continue
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%v\t%v\n", e.Host, e.Tool, native, e.DigestMatch, e.OutputMatch)
	}
	if failed > 0 {
		fmt.Fprintf(&b, "partial report: %d/%d cells failed\n", failed, len(entries))
	}
	return b.String()
}
