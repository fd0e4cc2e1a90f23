package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hostenv"
	"repro/internal/hub/cluster"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/runtime"
	"repro/internal/vfs"
)

// The hub probe's fixture: three `schub serve` peers with durable state,
// driven by an in-process cluster.Cluster with R=2 — the construction
// `schub -peers` uses — under open-loop Poisson arrivals.

const (
	hubPeers    = 3
	hubR        = 2
	hubColl     = "bench"
	variantName = "variant"
	payloadSrc  = "/payload.bin"
	payloadDst  = "/opt/payload/data.bin"
)

// hubImages is the hub probe's generated input: the tools' base images
// and every variant image of the plan with its expected digest.
type hubImages struct {
	bases    []*image.Image
	variants []*image.Image
	digests  []string
}

// buildHubImages builds the base images and the plan's variants: each
// variant is its tool's recipe plus a %files payload from the build
// context, so the payload passes through vfs, layer encoding and
// digesting, and the variant shares its tool's base layers.
func buildHubImages(plan hubPlan) (*hubImages, error) {
	fw := core.New()
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		return nil, err
	}
	if err := host.InstallSingularity(); err != nil {
		return nil, err
	}
	builds, err := fw.BuildAll(host)
	if err != nil {
		return nil, err
	}
	tools := core.Tools()
	out := &hubImages{}
	recipes := make([]*recipe.Recipe, len(tools))
	for i, t := range tools {
		out.bases = append(out.bases, builds[t].Image)
		r, err := core.Recipe(t)
		if err != nil {
			return nil, err
		}
		r.Files = append(r.Files, recipe.FilePair{Src: payloadSrc, Dst: payloadDst})
		if recipes[i], err = recipe.Parse(r.String()); err != nil {
			return nil, err
		}
	}
	for _, v := range plan.Variants {
		ctxFS := vfs.New()
		if err := ctxFS.WriteFile(payloadSrc, payload(v), 0o644); err != nil {
			return nil, err
		}
		res, err := fw.Engine.Build(recipes[v.Tool], host, runtime.BuildContext{FS: ctxFS}, variantName, v.Tag)
		if err != nil {
			return nil, fmt.Errorf("building variant %s: %w", v.Tag, err)
		}
		out.variants = append(out.variants, res.Image)
		out.digests = append(out.digests, res.Digest)
	}
	return out, nil
}

// hubCluster is one set-up instance: the peers and the publishing client.
type hubCluster struct {
	peers []*peerProc
	pub   *cluster.Cluster
}

// setUpHub starts the peers, waits until each answers status, and seeds
// the base images through a fresh cluster client.
func setUpHub(schub, dir string, reg *obs.Registry, bases []*image.Image) (*hubCluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	peers, err := startPeers(schub, dir, hubPeers)
	if err != nil {
		return nil, err
	}
	pub, err := cluster.New(cluster.Options{Peers: clusterPeers(peers), Replication: hubR, Obs: reg})
	if err != nil {
		stopPeers(peers)
		return nil, err
	}
	for _, img := range bases {
		if _, err := pub.Push(hubColl, img); err != nil {
			stopPeers(peers)
			return nil, fmt.Errorf("seeding %s: %w", img.Ref(), err)
		}
	}
	return &hubCluster{peers: peers, pub: pub}, nil
}

func (h *hubCluster) stop() { stopPeers(h.peers) }

// hubExec runs one op of the plan and checks its digest.
func (h *hubCluster) exec(op hubOp, imgs *hubImages, reg *obs.Registry) error {
	want := imgs.digests[op.Variant]
	if op.Push {
		d, err := h.pub.Push(hubColl, imgs.variants[op.Variant])
		if err != nil {
			return err
		}
		if d != want {
			return fmt.Errorf("%w: push %s returned %s, want %s", errCheck, op.Tag, d, want)
		}
		return nil
	}
	// A fresh cluster client is a new host: empty layer cache.
	fresh, err := cluster.New(cluster.Options{Peers: clusterPeers(h.peers), Replication: hubR, Obs: reg})
	if err != nil {
		return err
	}
	img, d, err := fresh.Pull(hubColl, variantName, op.Tag, want)
	if err != nil {
		return err
	}
	if d != want || img == nil {
		return fmt.Errorf("%w: pull %s returned %s, want %s", errCheck, op.Tag, d, want)
	}
	return nil
}

// openLoop issues the plan's ops at their due times, one at a time, and
// returns how late each one started. With one op in flight the ops on a
// tag run in plan order, so every pull knows which digest its tag holds.
func openLoop(plan hubPlan, do func(hubOp) error) ([]float64, error) {
	start := time.Now()
	lags := make([]float64, 0, len(plan.Ops))
	for i, op := range plan.Ops {
		due := start.Add(op.Due)
		time.Sleep(time.Until(due))
		lags = append(lags, ms(time.Since(due)))
		if err := do(op); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.Tag, err)
		}
	}
	return lags, nil
}
