package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/runctx"
)

// §II.B of the paper describes the ACM artifact review and badging
// initiative (its ref [1]): publications earn badges when their digital
// artifacts are found functional, reusable, and available, and when the
// study's results are validated and reproduced. This file turns those
// criteria into checks the framework runs against itself, so the badge
// claims are measurements rather than assertions.

// Badge identifies one ACM artifact badge.
type Badge string

// The ACM badge set (Artifact Review and Badging v1.0 terminology).
const (
	BadgeFunctional Badge = "Artifacts Evaluated — Functional"
	BadgeReusable   Badge = "Artifacts Evaluated — Reusable"
	BadgeAvailable  Badge = "Artifacts Available"
	BadgeValidated  Badge = "Results Validated — Replicated"
	BadgeReproduced Badge = "Results Validated — Reproduced"
)

// BadgeResult records one badge assessment.
type BadgeResult struct {
	Badge    Badge
	Earned   bool
	Evidence []string // what was checked, in order
}

// BadgeReport is the full assessment.
type BadgeReport struct {
	Results []BadgeResult
}

// Earned lists the earned badges in assessment order.
func (r *BadgeReport) Earned() []Badge {
	var out []Badge
	for _, b := range r.Results {
		if b.Earned {
			out = append(out, b.Badge)
		}
	}
	return out
}

// String renders the report.
func (r *BadgeReport) String() string {
	var b strings.Builder
	for _, res := range r.Results {
		mark := "✗"
		if res.Earned {
			mark = "✓"
		}
		fmt.Fprintf(&b, "[%s] %s\n", mark, res.Badge)
		for _, e := range res.Evidence {
			fmt.Fprintf(&b, "      - %s\n", e)
		}
	}
	return b.String()
}

// AssessBadges runs the badge criteria against a hub that the framework's
// containers have been pushed to:
//
//   - Functional: every container builds from its recipe and runs its
//     canned model to completion on the build host;
//   - Reusable: the containers also run user-supplied inputs (a model not
//     baked into any recipe) and the recipes are regenerable from source;
//   - Available: every container is retrievable from the archive (hub)
//     with a verified content digest;
//   - Validated (replicated): the containerized runs produce output
//     byte-identical to native runs (the paper's §III methodology);
//   - Reproduced: an independent environment (a different host profile)
//     obtains the same results from the published artifacts.
//
// The verdicts are a pure function of the framework's shared evidence:
// the publication for client, the build-host validations every badge
// reads, and one digest-verified pull per tool, which also supplies the
// independent host's runs. A canceled ctx yields a *runctx.ErrCanceled.
func (f *Framework) AssessBadges(ctx context.Context, client *hub.Client) (*BadgeReport, error) {
	var ev *badgeEvidence
	err := ctx.Err()
	if err == nil {
		ev, err = f.badgeEvidence(ctx, client)
	}
	if cerr := ctx.Err(); cerr != nil {
		runctx.Record(f.Obs, "core.badges", cerr)
		return nil, runctx.New("core.badges", cerr, 0, 5, "badges")
	}
	if err != nil {
		return nil, err
	}
	return ev.report(), nil
}

// userModel is the Reusable badge's model, bundled with no recipe.
const userModel = "r = 0.7;\nU = (userwork, r).U1;\nU1 = (userrest, 1.4).U;\nU\n"

// badgeEvidence is every fact the badge criteria read.
type badgeEvidence struct {
	tools           map[Tool]toolEvidence
	user            *ValidationReport // the user-supplied model on the build host
	userErr         error
	independentHost string
}

// toolEvidence is one tool's example validated on the build host, its
// digest-verified pull, and the example validated on the independent
// host from the pulled image.
type toolEvidence struct {
	example, independent                *ValidationReport
	exampleErr, pullErr, independentErr error
}

func (f *Framework) badgeEvidence(ctx context.Context, client *hub.Client) (*badgeEvidence, error) {
	pub, err := f.Publish(ctx, client)
	if err != nil {
		return nil, err
	}
	independent, err := readyHost(hostenv.GCPInstance)
	if err != nil {
		return nil, err
	}
	ev := &badgeEvidence{tools: map[Tool]toolEvidence{}, independentHost: independent.Name}
	for _, t := range Tools() {
		var e toolEvidence
		b := pub.Builds[t]
		e.example, e.exampleErr = f.validate(ctx, pub.Builder, b.Image, b.Digest, exampleRun(t))
		img, digest, err := client.Pull(f.Collection, string(t), "latest", pub.Digests[t])
		switch {
		case err != nil:
			e.pullErr = err
		case e.exampleErr != nil:
			return nil, e.exampleErr
		default:
			e.independent, e.independentErr = f.validate(ctx, independent, img, digest, exampleRun(t))
		}
		ev.tools[t] = e
	}
	ev.user, ev.userErr = f.Validate(ctx, ToolPEPA, pub.Builder, pub.Builds[ToolPEPA], "usersupplied.pepa", userModel)
	return ev, nil
}

// report derives the five badge verdicts from the evidence.
func (ev *badgeEvidence) report() *BadgeReport {
	perTool := func(b Badge, check func(Tool, toolEvidence) (string, bool)) BadgeResult {
		res := BadgeResult{Badge: b, Earned: true}
		for _, t := range Tools() {
			line, ok := check(t, ev.tools[t])
			res.Earned = res.Earned && ok
			res.Evidence = append(res.Evidence, line)
		}
		return res
	}
	functional := perTool(BadgeFunctional, func(t Tool, e toolEvidence) (string, bool) {
		if e.exampleErr != nil || e.example.ContainerOut == "" {
			return fmt.Sprintf("%s: containerized run failed: %v", t, e.exampleErr), false
		}
		return fmt.Sprintf("%s builds from recipe and runs its example model", t), true
	})

	reusable := BadgeResult{Badge: BadgeReusable, Earned: true}
	if ev.userErr != nil || !strings.Contains(ev.user.ContainerOut, "steady-state distribution") {
		reusable.Earned = false
		reusable.Evidence = append(reusable.Evidence, fmt.Sprintf("user-supplied model failed: %v", ev.userErr))
	} else {
		reusable.Evidence = append(reusable.Evidence, "container solves a user-supplied model (not bundled with any recipe)")
	}
	for _, t := range Tools() {
		if _, err := Recipe(t); err != nil {
			reusable.Earned = false
			reusable.Evidence = append(reusable.Evidence, fmt.Sprintf("%s recipe not regenerable: %v", t, err))
		}
	}
	if reusable.Earned {
		reusable.Evidence = append(reusable.Evidence, "all recipes regenerate from source")
	}

	available := perTool(BadgeAvailable, func(t Tool, e toolEvidence) (string, bool) {
		if e.pullErr != nil {
			return fmt.Sprintf("%s: pull failed: %v", t, e.pullErr), false
		}
		return fmt.Sprintf("%s retrievable from the archive, digest verified", t), true
	})
	// Validated: native-vs-container equality on the build host.
	validated := perTool(BadgeValidated, func(t Tool, e toolEvidence) (string, bool) {
		if e.exampleErr != nil || !e.example.Match {
			return fmt.Sprintf("%s: containerized output differs from native", t), false
		}
		return fmt.Sprintf("%s: containerized output byte-identical to native", t), true
	})
	// Reproduced: an independent environment pulls the published artifacts
	// and obtains the same results.
	reproduced := perTool(BadgeReproduced, func(t Tool, e toolEvidence) (string, bool) {
		switch {
		case e.pullErr != nil:
			return fmt.Sprintf("%s: pull on independent host failed: %v", t, e.pullErr), false
		case e.independentErr != nil || e.independent.ContainerOut != e.example.ContainerOut:
			return fmt.Sprintf("%s: independent host produced different output", t), false
		}
		return fmt.Sprintf("%s: %s reproduces the build host's results from pulled artifacts", t, ev.independentHost), true
	})
	return &BadgeReport{Results: []BadgeResult{functional, reusable, available, validated, reproduced}}
}
