package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// The shared evidence: the experiments' verdicts rest on a few facts —
// model runs, native-install attempts, one build-and-push — that several
// experiments read (Fig 1, the matrix's build-host cell and three badges
// all read the PEPA example's build-host run). Each fact is computed once
// per framework, keyed by the content it depends on (par.Memo: single-
// flight, successes only), so every verdict traces back to one
// computation over named inputs.

// runInput is a model run's input besides host and image: the tool, its
// input files, the file naming the model, and the analysis arguments
// (those naming an input file are qualified per run location).
type runInput struct {
	tool     Tool
	mainFile string
	files    map[string]string
	args     []string
}

func (in runInput) names() []string {
	names := make([]string, 0, len(in.files))
	for name := range in.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// key fingerprints a run: kind, tool, host profile, image digest, the
// input files in name order, and the arguments, each quoted so that no
// two distinct runs share a key.
func (in runInput) key(kind, hostName, digest string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %q %q %q %q %d", kind, in.tool, hostName, digest, in.mainFile, len(in.files))
	for _, name := range in.names() {
		fmt.Fprintf(h, " %q %q", name, in.files[name])
	}
	fmt.Fprintf(h, " %q", in.args)
	return hex.EncodeToString(h.Sum(nil))
}

func (in runInput) argv(dir string) []string {
	out := []string{dir + "/" + in.mainFile}
	for _, a := range in.args {
		if _, isFile := in.files[a]; isFile {
			a = dir + "/" + a
		}
		out = append(out, a)
	}
	return out
}

// run returns the tool's stdout on host — natively when img is nil, else
// inside img (content digest digest) with the model directory bound to
// /data — computed once per key; parent gets a native_run or
// container_run span when the run executes. The run uses a copy of host
// whose model directory holds exactly the input files, so it sees only
// what its key names and leaves host untouched.
func (f *Framework) run(ctx context.Context, parent *obs.Span, host *hostenv.Host, img *image.Image, digest string, in runInput) (string, error) {
	kind := "native"
	if img != nil {
		kind = "container"
	}
	return f.runs.Do(ctx, in.key(kind, host.Name, digest), func() (string, error) {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		h := host.Clone()
		if err := errors.Join(h.FS.RemoveAll(hostModelDir), h.FS.MkdirAll(hostModelDir, 0o755)); err != nil {
			return "", err
		}
		for _, name := range in.names() {
			if err := h.FS.WriteFile(hostModelDir+"/"+name, []byte(in.files[name]), 0o644); err != nil {
				return "", err
			}
		}
		sp := parent.StartSpan(kind + "_run")
		defer sp.End()
		if img == nil {
			return f.Engine.NativeRun(specs[in.tool].app, in.argv(hostModelDir), h)
		}
		res, err := f.Engine.Run(img, h, runtime.RunOptions{
			Isolation: runtime.IsolationSingularity,
			Args:      in.argv(containerModelDir),
			Binds:     []runtime.Bind{{HostPath: hostModelDir, ContainerPath: containerModelDir}},
		})
		if err != nil {
			return "", err
		}
		return res.Stdout, nil
	})
}

// NativeInstall reports why installing the tool natively from the named
// host profile's own repository fails, or nil — the §I–II motivation
// fact, attempted once per (profile, package) on a fresh profile.
func (f *Framework) NativeInstall(ctx context.Context, hostName string, t Tool) error {
	pkg, err := t.Package()
	if err != nil {
		return err
	}
	failure, err := f.installs.Do(ctx, [2]string{hostName, pkg}, func() (string, error) {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		h, err := hostenv.ByName(hostName)
		if err != nil {
			return "", err
		}
		if err := h.NativeInstall(pkg); err != nil {
			return err.Error(), nil
		}
		return "", nil
	})
	if err == nil && failure != "" {
		err = errors.New(failure)
	}
	return err
}

// Publication is the three containers built on the build host (Builder,
// runtime installed) and pushed through one hub client: Digests for the
// pushes that succeeded, PushErr for the rest.
type Publication struct {
	Builder *hostenv.Host
	Builds  map[Tool]*runtime.BuildResult
	Digests map[Tool]string
	PushErr map[Tool]error
}

// Publish builds and pushes the containers once per client; later and
// concurrent calls share it. A failed build returns no publication; a
// failed push returns the publication and an error and is not kept, so
// the next call pushes again.
func (f *Framework) Publish(ctx context.Context, client *hub.Client) (*Publication, error) {
	return f.published.Do(ctx, client, func() (*Publication, error) {
		builder, err := readyHost(hostenv.BuildHost)
		if err != nil {
			return nil, err
		}
		pub := &Publication{Builder: builder}
		if pub.Builds, err = f.BuildAllCtx(ctx, builder); err != nil {
			return nil, err
		}
		pub.Digests, pub.PushErr, err = f.pushAll(ctx, client, pub.Builds)
		return pub, err
	})
}
