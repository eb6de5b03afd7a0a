package main

import (
	"fmt"
	"math/rand"
	"time"

	"mha/internal/explore"
	"mha/internal/sim"
	"mha/internal/verify"
)

// certPair is one certification input: a variant explored at 2x2x2,
// healthy only (FaultBudget 0) or with every single-rail Down placement
// (FaultBudget 1).
type certPair struct {
	alg         string
	faultBudget int
	// copies is how many times a round certifies it.
	copies int
}

// certPairs is the round: the two heavy healthy certifications (about a
// million engine steps each) and the single-rail-Down placements of
// three cheaper variants, repeated so both kinds carry weight in every
// round.
var certPairs = []certPair{
	{"rd", 0, 1},
	{"sched-mha", 0, 1},
	{"ring", 1, 5},
	{"compose-rs", 1, 4},
	{"locality-ring", 1, 4},
}

// certify is the explore-certify workload: one op is one complete
// explore.Run certification of a (variant, placements) pair.
type certify struct {
	small bool
	seed  int64
	items []item
	// msg is each variant's seeded per-rank message size.
	msg map[string]int
}

func (e *certify) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	e.seed, e.items, e.msg = seed, nil, map[string]int{}
	for _, p := range certPairs {
		e.msg[p.alg] = 8 * (1 + rng.Intn(4))
	}
	for _, p := range certPairs {
		opt := explore.Options{Algs: []string{p.alg}, Nodes: 2, PPN: e.ppn(), HCAs: 2,
			Msg: e.msg[p.alg], FaultBudget: p.faultBudget}
		e.items = append(e.items, item{
			name:   fmt.Sprintf("%s/2x%dx2/%dB/faults=%d", p.alg, opt.PPN, opt.Msg, p.faultBudget),
			family: p.alg, kind: fmt.Sprintf("faults=%d", p.faultBudget), copies: p.copies,
			run: func(c *opCtx) (float64, error) { return certifyOnce(c, opt) },
		})
	}
	// Warm up with the cheapest pair of each kind, not the first: a
	// healthy certification costs seconds.
	return warmUp([]item{e.items[len(e.items)-1], {kind: "faults=0", run: func(c *opCtx) (float64, error) {
		return certifyOnce(c, explore.Options{Algs: []string{"ring"}, Nodes: 2, PPN: 1, HCAs: 2, Msg: 8})
	}}})
}

// certifyOnce runs one exploration (span explore.Run). It fails unless
// the search completed with no counterexample, and returns the step
// count, which every repeat must reproduce.
func certifyOnce(c *opCtx, opt explore.Options) (float64, error) {
	h := c.tr.begin("explore.Run")
	rep, err := explore.Run(opt)
	dur := c.tr.end(h)
	if err != nil {
		return 0, err
	}
	if !rep.Complete || rep.Counterexamples != 0 {
		return 0, fmt.Errorf("certification of %v: complete=%v counterexamples=%d", opt.Algs, rep.Complete, rep.Counterexamples)
	}
	if c.acc != nil {
		c.acc.add("ops", 1)
		c.acc.add("executions", float64(rep.Executions))
		c.acc.add("steps", float64(rep.Steps))
		c.acc.add("space", rep.SpaceEstimate)
		c.acc.add("run_ns", float64(dur))
		for _, pl := range rep.Placements {
			c.acc.add("redundant", float64(pl.RedundantExecs))
		}
	}
	return float64(rep.Steps), nil
}

// ppn is 2 ranks per node, 1 in smoke mode.
func (e *certify) ppn() int {
	if e.small {
		return 1
	}
	return 2
}

func (e *certify) measure(d time.Duration, traced bool) (*phase, error) {
	ph, a, _ := runRounds(e.items, e.seed, d, traced, 75)
	// runRounds collected step counts; modeled_us_geomean comes from the
	// gate's canonical runs instead.
	ph.modeled = nil
	ph.layer = map[string]float64{
		"explore.executions_per_op": a.ratio("executions", "ops"),
		"explore.redundant_frac":    a.ratio("redundant", "executions"),
		"explore.space_reduction":   a.ratio("space", "executions"),
	}
	if ns := a.sums["run_ns"]; ns > 0 {
		ph.layer["explore.steps_per_s"] = a.sums["steps"] / ns * 1e9
	}
	return ph, nil
}

// check runs every certified variant once through verify.RunOnce at the
// certification shape and seeded size, in the classic event order, and
// takes their makespans as the workload's modeled times.
func (e *certify) check(ph *phase) {
	var scs []verify.Scenario
	for _, p := range certPairs {
		scs = append(scs, verify.Scenario{Alg: p.alg, Nodes: 2, PPN: e.ppn(), HCAs: 2, Msg: e.msg[p.alg], Seed: 1})
	}
	for _, sc := range scs {
		ph.attempted++
		res := verify.RunOnce(sc, nil)
		if len(res.Violations) > 0 {
			ph.fail("verify %s: %v", sc.Spec(), res.Violations[0])
			continue
		}
		ph.modeled = append(ph.modeled, sim.Duration(res.Makespan).Micros())
	}
	ph.note("correctness gate: every op complete with no counterexample; %d verify.RunOnce scenarios", len(scs))
}
