package main

import (
	"fmt"
	"math"

	"repro/internal/experiment"
	"repro/internal/pepa"
)

// The rate sweep probe's reference: experiment.RateSweep (the `pepa
// -sweep` path) over the seeded model's fault-rate points. RateSweep
// derives every point again, so derivation dominates.

// sweepReference solves each point on its own — one-point sweeps run on
// the calling goroutine — as the single-threaded reference.
func sweepReference(in sweepInput) ([]experiment.Point, error) {
	m, err := pepa.Parse(in.Source)
	if err != nil {
		return nil, err
	}
	var pts []experiment.Point
	for _, v := range in.Values {
		s, err := experiment.RateSweep(m, in.Rate, []float64{v}, experiment.Throughput{Action: in.Action})
		if err != nil {
			return nil, err
		}
		pts = append(pts, s.Points[0])
	}
	return pts, nil
}

func checkPoints(got, want []experiment.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d points, want %d", errCheck, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) ||
			math.Float64bits(got[i].Measure) != math.Float64bits(want[i].Measure) {
			return fmt.Errorf("%w: point %d is (%v, %v), reference (%v, %v)", errCheck, i,
				got[i].Value, got[i].Measure, want[i].Value, want[i].Measure)
		}
	}
	return nil
}
