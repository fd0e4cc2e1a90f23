// Quickstart: parse a PEPA model, solve it natively, then build the PEPA
// container, run the same model inside it, and check the outputs match —
// the paper's whole workflow in one file.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/hostenv"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
)

const model = `
// A tiny processor/jobs system.
lambda = 2.0;
mu     = 3.0;
phi    = 0.1;
rho    = 1.0;

Proc      = (serve, mu).Proc + (fault, phi).ProcDown;
ProcDown  = (repair, rho).Proc;
Jobs      = (serve, T).Jobs + (arrive, lambda).Jobs;

Proc <serve> Jobs
`

func main() {
	// --- 1. Native analysis with the library API. ---
	m, err := pepa.Parse(model)
	if err != nil {
		log.Fatal(err)
	}
	if res := pepa.Check(m); res.Err() != nil {
		log.Fatal(res.Err())
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state space: %d states, %d transitions\n", ss.NumStates(), ss.NumTransitions())

	chain := ctmc.FromStateSpace(ss)
	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for s, p := range pi {
		fmt.Printf("  pi[%s] = %.6f\n", ss.States[s], p)
	}
	tput, err := chain.Throughput(pi, "serve")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serve throughput: %.4f jobs/unit time\n\n", tput)

	// --- 2. The same model through the containerized solver. ---
	fw := core.New()
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		log.Fatal(err)
	}
	if err := host.InstallSingularity(); err != nil {
		log.Fatal(err)
	}
	build, err := fw.Build(core.ToolPEPA, host)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built container %s\n  digest %s\n", build.Image.Ref(), build.Digest)

	rep, err := fw.Validate(context.Background(), core.ToolPEPA, host, build, "quickstart.pepa", model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("containerized output identical to native: %v\n", rep.Match)
	fmt.Println("--- container output ---")
	fmt.Print(rep.ContainerOut)
}
