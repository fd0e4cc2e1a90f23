package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/rng"
)

// Seeded input generators. Every input a workload feeds the program comes
// from here and depends only on the --seed argument; the program never
// sees the seed itself.

// subSeed derives an independent stream seed for one purpose (and one
// index within it) from the run seed, so adding a draw to one generator
// never shifts another's inputs.
func subSeed(seed uint64, purpose string, i int) uint64 {
	h := uint64(14695981039346656037) // FNV-1a over purpose, then mixed with seed and i
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rng.New(seed ^ h ^ uint64(i)*0x9E3779B97F4A7C15).Uint64()
}

// perturbSeed is the CompareMappings seed of perturb op i.
func perturbSeed(seed uint64, i int) uint64 { return subSeed(seed, "perturb-op", i) }

// sweepInput is one ratesweep workload: a PEPA model, the rate constant
// swept, the sweep points and the measured action.
type sweepInput struct {
	Source string
	Rate   string
	Values []float64
	Action string
}

// Model shape: sweepProcs failing processors (idle / working / failed)
// cooperate over <work> with a job queue holding up to sweepQueue jobs,
// so the chain has 3^sweepProcs * (sweepQueue+1) states whatever the seed.
const (
	sweepProcs  = 4
	sweepQueue  = 8
	sweepPoints = 8
)

// genSweep draws the model's rates within ±20% of nominal and the fault
// rate range, so the seed moves the numbers but never the structure.
func genSweep(seed uint64) sweepInput {
	r := rng.New(subSeed(seed, "ratesweep-model", 0))
	draw := func(nominal float64) float64 {
		return round6(nominal * (0.8 + 0.4*r.Float64()))
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"r_arr", draw(2.0)},
		{"r_work", draw(1.5)},
		{"r_done", draw(0.8)},
		{"r_fail", draw(0.05)},
		{"r_rep", draw(0.5)},
	}
	var b strings.Builder
	for _, rt := range rates {
		fmt.Fprintf(&b, "%s = %s;\n", rt.name, strconv.FormatFloat(rt.v, 'f', -1, 64))
	}
	b.WriteString("P = (work, r_work).Pw + (fail, r_fail).Pf;\n")
	b.WriteString("Pw = (done, r_done).P + (fail, r_fail).Pf;\n")
	b.WriteString("Pf = (repair, r_rep).P;\n")
	for q := 0; q <= sweepQueue; q++ {
		var alts []string
		if q < sweepQueue {
			alts = append(alts, fmt.Sprintf("(arrive, r_arr).Q%d", q+1))
		}
		if q > 0 {
			alts = append(alts, fmt.Sprintf("(work, T).Q%d", q-1))
		}
		fmt.Fprintf(&b, "Q%d = %s;\n", q, strings.Join(alts, " + "))
	}
	procs := make([]string, sweepProcs)
	for i := range procs {
		procs[i] = "P"
	}
	fmt.Fprintf(&b, "(%s) <work> Q0\n", strings.Join(procs, " || "))
	lo := round6(0.01 + 0.01*r.Float64())
	return sweepInput{
		Source: b.String(),
		Rate:   "r_fail",
		Values: experiment.Geomspace(lo, 40*lo, sweepPoints),
		Action: "done",
	}
}

func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// Hub payload bounds: each variant image carries one payload file of
// 64 KiB to 2 MiB.
const (
	payloadMin = 64 << 10
	payloadMax = 2 << 20
)

// hubVariant is one image to push: its tool's recipe plus a payload file.
type hubVariant struct {
	Tool        int // index into core.Tools()
	Tag         string
	Size        int
	PayloadSeed uint64
}

// hubOp is one hub operation of the plan.
type hubOp struct {
	Due     time.Duration // offset from the start of the plan
	Push    bool
	Variant int // push: the variant pushed; pull: the variant the tag must hold
	Tag     string
}

// hubPlan is the hub probe's input: the variants pushed during warm-up
// (so pulls have targets from the first op), then the op sequence.
type hubPlan struct {
	Variants []hubVariant
	Warm     []int
	Ops      []hubOp
}

// Hub mix: a third of the ops are pushes, and a third of those overwrite
// a tag pushed earlier; the rest are pulls of a tag pushed earlier.
const (
	hubWarmVariants = 8
	hubPushShare    = 1.0 / 3
	hubOverwrite    = 1.0 / 3
)

// genHubPlan builds n ops arriving over span (whole seconds). Payload
// sizes are log-uniform and stratified (see stratified), so every seed,
// and every stretch of the op sequence, pushes and pulls the same spread
// of sizes in a different order.
func genHubPlan(seed uint64, n int, span time.Duration) hubPlan {
	r := rng.New(subSeed(seed, "hub-plan", 0))
	pushes := int(math.Round(float64(n) * hubPushShare))
	overwrites := int(math.Round(float64(pushes) * hubOverwrite))
	kinds := make([]bool, n) // true = push
	for i := 0; i < pushes; i++ {
		kinds[i] = true
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	owKinds := make([]bool, pushes) // true = overwrite
	for i := 0; i < overwrites; i++ {
		owKinds[i] = true
	}
	r.Shuffle(pushes, func(i, j int) { owKinds[i], owKinds[j] = owKinds[j], owKinds[i] })

	lo, hi := math.Log(payloadMin), math.Log(payloadMax)
	sizes := make([]int, hubWarmVariants+pushes)
	for i, x := range stratified(r, len(sizes)) {
		sizes[i] = int(math.Exp(lo + (hi-lo)*x))
	}

	var p hubPlan
	var tags []string
	holder := map[string]int{} // tag -> variant it currently holds
	newVariant := func(tag string) int {
		v := len(p.Variants)
		p.Variants = append(p.Variants, hubVariant{
			Tool: r.Intn(3), Tag: tag, Size: sizes[v],
			PayloadSeed: subSeed(seed, "hub-payload", v),
		})
		holder[tag] = v
		return v
	}
	for i := 0; i < hubWarmVariants; i++ {
		tag := fmt.Sprintf("t%03d", len(tags))
		tags = append(tags, tag)
		p.Warm = append(p.Warm, newVariant(tag))
	}
	// Pull targets are stratified by size as well: pull k asks for the tag
	// whose payload is nearest a log-uniform size drawn from its own
	// stratum, so the pulled sizes, not only the pushed ones, have the
	// same spread for every seed.
	want := stratified(r, n-pushes)
	for i, x := range want {
		want[i] = lo + (hi-lo)*x
	}
	nearest := func(logSize float64) string {
		best, bestD := "", math.Inf(1)
		for _, tag := range tags {
			d := math.Abs(math.Log(float64(p.Variants[holder[tag]].Size)) - logSize)
			if d < bestD {
				best, bestD = tag, d
			}
		}
		return best
	}
	// Arrivals: within each second, its share of the n arrivals at uniform
	// times — a Poisson process conditioned on its count per second, so
	// every second of every seed offers the same load.
	due := make([]float64, n)
	secs := int(math.Ceil(span.Seconds()))
	for i := range due {
		sec := i * secs / n
		due[i] = float64(sec) + r.Float64()
	}
	sort.Float64s(due)
	pi, ki := 0, 0
	for i := 0; i < n; i++ {
		op := hubOp{Due: time.Duration(due[i] * float64(time.Second)), Push: kinds[i]}
		switch {
		case op.Push && owKinds[pi]:
			op.Tag = tags[r.Intn(len(tags))]
			op.Variant = newVariant(op.Tag)
			pi++
		case op.Push:
			op.Tag = fmt.Sprintf("t%03d", len(tags))
			tags = append(tags, op.Tag)
			op.Variant = newVariant(op.Tag)
			pi++
		default:
			op.Tag = nearest(want[ki])
			op.Variant = holder[op.Tag]
			ki++
		}
		p.Ops = append(p.Ops, op)
	}
	return p
}

// strataBlock is how many consecutive draws of stratified cover all
// strata between them.
const strataBlock = 8

// stratified returns n draws in [0,1): each consecutive block of
// strataBlock draws takes one value from each of strataBlock equal
// strata, in shuffled order. Any prefix of the sequence, such as the ops
// a run gets through, then holds nearly the same spread of values.
func stratified(r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	perm := make([]int, strataBlock)
	for b := 0; b < n; b += strataBlock {
		for i := range perm {
			perm[i] = i
		}
		r.Shuffle(strataBlock, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := b; i < min(n, b+strataBlock); i++ {
			out[i] = (float64(perm[i-b]) + r.Float64()) / strataBlock
		}
	}
	return out
}

// payload fills a variant's payload bytes from its seed.
func payload(v hubVariant) []byte {
	r := rng.New(v.PayloadSeed)
	b := make([]byte, v.Size)
	for i := 0; i < len(b); i += 8 {
		x := r.Uint64()
		for k := 0; k < 8 && i+k < len(b); k++ {
			b[i+k] = byte(x >> (8 * k))
		}
	}
	return b
}
