package core

import (
	"fmt"

	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/image"
	"repro/internal/recipe"
	"repro/internal/recipestore"
	"repro/internal/runtime"
)

// HubBuilder adapts the framework's engine to the hub's auto-build
// interface: the hub builds pushed recipes itself on a dedicated build
// host, so every published image provably corresponds to a published
// recipe (Singularity-Hub's operating model).
type HubBuilder struct {
	Engine *runtime.Engine
	Host   *hostenv.Host
}

// NewHubBuilder prepares a builder on the standard build host.
func (f *Framework) NewHubBuilder() (*HubBuilder, error) {
	host, err := readyHost(hostenv.BuildHost)
	if err != nil {
		return nil, err
	}
	return &HubBuilder{Engine: f.Engine, Host: host}, nil
}

// BuildFromRecipe implements hub.Builder.
func (b *HubBuilder) BuildFromRecipe(recipeSrc, name, tag string) (*image.Image, error) {
	rcp, err := recipe.Parse(recipeSrc)
	if err != nil {
		return nil, err
	}
	res, err := b.Engine.Build(rcp, b.Host, runtime.BuildContext{}, name, tag)
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}

// CommitRecipes commits all three tool recipes to a recipe store (the
// version-controlled "GitHub" artifact).
func (f *Framework) CommitRecipes(store *recipestore.Store, author, message string) (*recipestore.Commit, error) {
	changes := map[string]string{}
	for _, t := range Tools() {
		rcp, err := Recipe(t)
		if err != nil {
			return nil, err
		}
		changes[string(t)+"/Singularity"] = rcp.Source
	}
	return store.Commit(author, message, changes)
}

// PublishFromStore checks a recipe out of a specific commit and asks the
// hub to build and publish it — rebuildable provenance from recipe history
// to published digest.
func (f *Framework) PublishFromStore(client *hub.Client, store *recipestore.Store, commitHash string, t Tool, tag string) (string, error) {
	src, err := store.Checkout(commitHash, string(t)+"/Singularity")
	if err != nil {
		return "", err
	}
	digest, err := client.RemoteBuild(f.Collection, string(t), tag, src)
	if err != nil {
		return "", fmt.Errorf("core: remote build of %s@%s: %w", t, commitHash[:12], err)
	}
	return digest, nil
}
