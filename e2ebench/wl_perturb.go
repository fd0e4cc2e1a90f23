package main

import (
	"fmt"
	"math"

	"repro/internal/robustness"
)

// perturb: each op is robustness.NewStudy() followed by CompareMappings
// with a per-op seed, as examples/robustness runs it, in a closed loop.

// Op size: twice the perturbation samples and 1.5x the time grid of the
// example's 16x40, so one op is a few tens of milliseconds of solves.
const (
	perturbTau     = 300
	perturbSpread  = 0.2
	perturbN       = 32
	perturbSamples = 60
)

// compareResult keeps the figures of one op that are checked.
type compareResult struct {
	a, b   *robustness.PerturbationReport
	winner string
}

func perturbOp(seed uint64) (compareResult, error) {
	s := robustness.NewStudy()
	defer s.Close()
	a, b, w, err := s.CompareMappings(perturbTau, perturbSpread, perturbN, seed, perturbSamples)
	return compareResult{a, b, w}, err
}

// checkReport checks 0 <= worst <= mean <= best <= 1.
func checkReport(r *robustness.PerturbationReport) error {
	if !(0 <= r.Worst && r.Worst <= r.Mean && r.Mean <= r.Best && r.Best <= 1) {
		return fmt.Errorf("%w: mapping %s: worst %g, mean %g, best %g out of order", errCheck, r.Mapping, r.Worst, r.Mean, r.Best)
	}
	if len(r.Values) != perturbN {
		return fmt.Errorf("%w: mapping %s: %d values, want %d", errCheck, r.Mapping, len(r.Values), perturbN)
	}
	return nil
}

func checkCompare(c compareResult) error {
	if err := checkReport(c.a); err != nil {
		return err
	}
	if err := checkReport(c.b); err != nil {
		return err
	}
	want := robustness.MappingA
	if c.b.Worst > c.a.Worst {
		want = robustness.MappingB
	}
	if c.winner != want {
		return fmt.Errorf("%w: winner %s, worst cases say %s", errCheck, c.winner, want)
	}
	return nil
}

// sameBits reports whether two results are Float64bits-identical.
func sameBits(x, y compareResult) bool {
	eq := func(p, q *robustness.PerturbationReport) bool {
		if len(p.Values) != len(q.Values) {
			return false
		}
		for i := range p.Values {
			if math.Float64bits(p.Values[i]) != math.Float64bits(q.Values[i]) {
				return false
			}
		}
		return math.Float64bits(p.Nominal) == math.Float64bits(q.Nominal)
	}
	return x.winner == y.winner && eq(x.a, y.a) && eq(x.b, y.b)
}

func runPerturb(e env) (*timed, error) {
	t := &timed{}
	// Op 0's result is the reference for the end-of-run identity check.
	ref, err := perturbOp(perturbSeed(e.seed, 0))
	if err != nil {
		return nil, err
	}
	if err := checkCompare(ref); err != nil {
		return nil, err
	}
	for i := 1; i <= 2; i++ { // warm-up
		if _, err := perturbOp(perturbSeed(e.seed, i)); err != nil {
			return nil, err
		}
	}
	var first compareResult
	var rss []float64
	err = closedLoop(e.seconds, ownCPUErr, opPeakRSS(func(i int) error {
		c, err := perturbOp(perturbSeed(e.seed, i))
		if err != nil {
			return err
		}
		if i == 0 {
			first = c
		}
		return checkCompare(c)
	}, &rss), func(int) error {
		// Set-up: op 0 on a fresh study, which must reproduce the
		// reference.
		c, err := perturbOp(perturbSeed(e.seed, 0))
		if err != nil {
			return err
		}
		if !sameBits(ref, c) {
			return fmt.Errorf("%w: op 0 on a fresh study is not Float64bits-identical to the reference", errCheck)
		}
		return nil
	}, t)
	if err != nil {
		return nil, err
	}
	// Re-run op 0's seed: the result must be bit-identical to the op's and
	// to the set-up reference.
	again, err := perturbOp(perturbSeed(e.seed, 0))
	if err != nil {
		return nil, err
	}
	if first.a == nil || !sameBits(first, again) || !sameBits(ref, again) {
		t.fail("op 0 re-run is not Float64bits-identical")
	}
	setOpRSS(t, rss)
	return t, nil
}
