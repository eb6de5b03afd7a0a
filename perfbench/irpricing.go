package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mha/internal/compose"
	"mha/internal/core"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/verify"
)

// irPoint is one (machine, message size) pricing point.
type irPoint struct {
	topo topology.Cluster
	msg  int
}

func (p irPoint) String() string {
	return fmt.Sprintf("%dx%dx%d/%dB", p.topo.Nodes, p.topo.PPN, p.topo.HCAs, p.msg)
}

// irInput is one schedule source: how to build it and whether it runs
// under a goal (the derived non-allgather collectives) or the plain
// allgather interpreter.
type irInput struct {
	name  string
	build func(pt irPoint, prm *netmodel.Params) (*sched.Schedule, *sched.Goal, error)
	// maxRanks, when nonzero, skips points with more ranks.
	maxRanks int
}

// lowered builds a derived collective through compose.Lower. The derived
// allgather runs under the plain interpreter, as compose.ExecutePlan does,
// which keeps it byte-identical to sched.TwoPhaseMHA.
func lowered(comp compose.Composition) func(irPoint, *netmodel.Params) (*sched.Schedule, *sched.Goal, error) {
	return func(pt irPoint, prm *netmodel.Params) (*sched.Schedule, *sched.Goal, error) {
		plan, err := compose.Lower(comp, compose.NewHierarchy(pt.topo), pt.msg, prm)
		if err != nil {
			return nil, nil, err
		}
		if comp.Coll == compose.Allgather {
			return plan.Sched, nil, nil
		}
		return plan.Sched, plan.Goal, nil
	}
}

// irInputs are the schedules ir-pricing prices. The flat derived
// allreduce takes about 3 s per 8x32x2 simulation, so it runs only at the
// smaller shapes. Recursive doubling, the synthesizer's third seed
// lowering, runs at the small shape only, which makes the menu 19 items:
// an odd count keeps the median on one item.
var irInputs = []irInput{
	{"sched.mha", func(pt irPoint, prm *netmodel.Params) (*sched.Schedule, *sched.Goal, error) {
		return sched.TwoPhaseMHA(pt.topo, prm, pt.msg, sched.MHAOptions{Offload: sched.AutoOffload}), nil, nil
	}, 0},
	{"sched.ring", func(pt irPoint, _ *netmodel.Params) (*sched.Schedule, *sched.Goal, error) {
		return sched.Ring(pt.topo, pt.msg), nil, nil
	}, 0},
	{"compose.ag", lowered(compose.Hierarchical(compose.Allgather)), 0},
	{"compose.rs", lowered(compose.Hierarchical(compose.ReduceScatter)), 0},
	{"compose.ar", lowered(compose.Flat(compose.Allreduce)), 64},
	{"sched.rd", func(pt irPoint, _ *netmodel.Params) (*sched.Schedule, *sched.Goal, error) {
		return sched.RecursiveDoubling(pt.topo, pt.msg), nil, nil
	}, 8},
}

// Items at points of at most irSmallRanks ranks run irSmallCopies times a
// round. They take about a millisecond each, and op_p50_ms lands among
// them: with one copy it would rest on one sample per round of a single
// item whose time varies by half from call to call. With three copies
// per round, op_p50_ms lands on the 7th of those 11 items and op_tail_ms
// (p90) on the 4th of the 8 items at 8x32x2, whatever the round count.
const (
	irSmallRanks  = 32
	irSmallCopies = 3
)

// The ROADMAP item-2 points at 8x32x2, where the per-layer run reports
// the IR-to-core makespan ratio.
var (
	ir8k   = irPoint{topology.New(8, 32, 2), 8 << 10}
	ir256k = irPoint{topology.New(8, 32, 2), 256 << 10}
)

// irPoints returns the pricing points: the item-2 shapes at their exact
// sizes plus one small shape whose size the seed nudges. The warm-up
// prices each input at its first point, so 8x32x2 comes first.
func irPoints(seed int64, small bool) []irPoint {
	rng := rand.New(rand.NewSource(seed))
	pts := []irPoint{
		ir8k,
		ir256k,
		{topology.New(4, 4, 2), 256 << 10},
		{topology.New(2, 4, 2), jitter(rng, 16<<10)},
	}
	for i, pt := range pts {
		pts[i].topo = minShape(small, pt.topo.Nodes, pt.topo.PPN, pt.topo.HCAs)
	}
	return pts
}

// irPricing is the ir-pricing workload: each op prices one schedule the
// way mhasched, mhacompose and the synthesizer do — build or lower,
// analyze, simulate.
type irPricing struct {
	small  bool
	seed   int64
	points []irPoint
	items  []item
	// built remembers each item's input and point for the event replay.
	built []irBuilt
}

type irBuilt struct {
	in irInput
	pt irPoint
}

func (r *irPricing) setup(seed int64) error {
	prm := netmodel.Thor()
	r.seed, r.points, r.items, r.built = seed, irPoints(seed, r.small), nil, nil
	for _, pt := range r.points {
		for _, in := range irInputs {
			if in.maxRanks > 0 && pt.topo.Size() > in.maxRanks {
				continue
			}
			copies := 1
			if pt.topo.Size() <= irSmallRanks {
				copies = irSmallCopies
			}
			idx := len(r.items)
			r.items = append(r.items, item{
				name: in.name + "/" + pt.String(), family: in.name, kind: in.name, copies: copies,
				run: func(c *opCtx) (float64, error) { return priceOnce(c, idx, in, pt, prm) },
			})
			r.built = append(r.built, irBuilt{in, pt})
		}
	}
	return warmUp(r.items)
}

// priceOnce builds (span sched.build or compose.lower), analyzes (span
// sched.analyze) and simulates (span sched.simulate) one schedule and
// returns its simulated makespan. Traced ops record their item index
// so the replayed event counts can be matched to their allocations.
func priceOnce(c *opCtx, idx int, in irInput, pt irPoint, prm *netmodel.Params) (float64, error) {
	buildSpan := "sched.build"
	if strings.HasPrefix(in.name, "compose.") {
		buildSpan = "compose.lower"
	}
	h := c.tr.begin(buildSpan)
	s, g, err := in.build(pt, prm)
	buildDur := c.tr.end(h)
	if err != nil {
		return 0, err
	}
	h = c.tr.begin("sched.analyze")
	var rep *sched.Report
	if g == nil {
		rep, err = sched.Analyze(s, prm)
	} else {
		rep, err = sched.AnalyzeGoal(s, prm, g)
	}
	analyzeDur := c.tr.end(h)
	if err != nil {
		return 0, err
	}
	a0 := c.allocs()
	h = c.tr.begin("sched.simulate")
	var d sim.Duration
	if g == nil {
		d, err = sched.Simulate(pt.topo, prm, s)
	} else {
		d, err = sched.SimulateGoal(pt.topo, prm, s, g)
	}
	simDur := c.tr.end(h)
	a1 := c.allocs()
	if err != nil {
		return 0, err
	}
	if c.acc != nil {
		c.acc.add("ops", 1)
		c.acc.add(buildSpan+"_ns", float64(buildDur))
		c.acc.add("analyze_ns", float64(analyzeDur))
		c.acc.add("simulate_ns", float64(simDur))
		c.acc.add("allocs", float64(a1-a0))
		c.acc.add("procs", float64(pt.topo.Size()))
		if buildSpan == "compose.lower" {
			c.acc.add("lowers", 1)
		} else {
			c.acc.add("builds", 1)
		}
		c.acc.sample("analyze_vs_sim", float64(rep.Cost)/float64(d))
		c.acc.sample("item", float64(idx))
	}
	return d.Micros(), nil
}

func (r *irPricing) measure(d time.Duration, traced bool) (*phase, error) {
	prm := netmodel.Thor()
	ph, a, ref := runRounds(r.items, r.seed, d, traced, 90)
	ph.layer = map[string]float64{}
	// The untimed reference: hand-written MHA once per point.
	coreUS := map[string]float64{}
	for _, pt := range r.points {
		us, err := simRun(&opCtx{}, "", mpi.Config{Topo: pt.topo, Params: prm, Phantom: true},
			func(p *mpi.Proc, w *mpi.World) {
				core.MHAAllgather(p, w, mpi.Phantom(pt.msg), mpi.Phantom(pt.msg*p.Size()))
			})
		if err != nil {
			ph.attempted++
			ph.fail("core reference %v: %v", pt, err)
			continue
		}
		coreUS[pt.String()] = us
	}
	for i, b := range r.built {
		if b.in.name != "sched.mha" {
			continue
		}
		ratio := ref[i] / coreUS[b.pt.String()]
		ph.note("IR/core modeled makespan at %v: %.1f / %.1f us = %.3f", b.pt, ref[i], coreUS[b.pt.String()], ratio)
		switch b.pt.String() {
		case ir8k.String():
			ph.layer["sched.ir_vs_core_modeled.8x32x2_8k"] = ratio
		case ir256k.String():
			ph.layer["sched.ir_vs_core_modeled.8x32x2_256k"] = ratio
		}
	}
	if traced {
		r.layers(ph, a, ref)
	}
	return ph, nil
}

// layers computes the sched/compose/sim per-layer metrics. The
// simulator's event counts are not visible through sched.Simulate, so
// each priced schedule is replayed once on a world the benchmark owns;
// the replay must reproduce the priced makespan.
func (r *irPricing) layers(ph *phase, a *acc, ref []float64) {
	prm := netmodel.Thor()
	events := make([]float64, len(r.items))
	for i, b := range r.built {
		ev, us, err := replayEvents(b, prm)
		ph.attempted++
		switch {
		case err != nil:
			ph.fail("event replay %s: %v", r.items[i].name, err)
		case us != ref[i]:
			ph.fail("event replay %s: makespan %.6f us, priced %.6f us", r.items[i].name, us, ref[i])
		}
		events[i] = float64(ev)
	}
	var totalEvents float64
	for _, idx := range a.samples["item"] {
		totalEvents += events[int(idx)]
	}
	out := ph.layer
	ops := a.sums["ops"]
	if ops > 0 {
		out["sim.events_per_op"] = totalEvents / ops
		out["sim.procs_per_op"] = a.sums["procs"] / ops
		out["sched.analyze_ms"] = a.sums["analyze_ns"] / ops / 1e6
		out["sched.simulate_ms"] = a.sums["simulate_ns"] / ops / 1e6
	}
	out["sched.build_ms"] = a.ratio("sched.build_ns", "builds") / 1e6
	out["compose.lower_ms"] = a.ratio("compose.lower_ns", "lowers") / 1e6
	if totalEvents > 0 {
		out["sched.allocs_per_event"] = a.sums["allocs"] / totalEvents
		out["sim.allocs_per_event"] = out["sched.allocs_per_event"]
		out["sim.ns_per_event"] = a.sums["simulate_ns"] / totalEvents
		out["sim.events_per_s"] = totalEvents / a.sums["simulate_ns"] * 1e9
	}
	out["sched.analyze_vs_sim"] = geomean(a.samples["analyze_vs_sim"])
}

// replayEvents runs one priced schedule the way sched.Simulate and
// sched.SimulateGoal do, on a world the benchmark owns, and returns the
// engine's event count and the makespan in virtual µs.
func replayEvents(b irBuilt, prm *netmodel.Params) (int64, float64, error) {
	s, g, err := b.in.build(b.pt, prm)
	if err != nil {
		return 0, 0, err
	}
	w := mpi.New(mpi.Config{Topo: b.pt.topo, Params: prm, Phantom: true})
	phantom := func(rng sched.Range) mpi.Buf { return mpi.Phantom(rng.Count * s.Msg) }
	var worst sim.Time
	err = w.Run(func(p *mpi.Proc) {
		if g == nil {
			sched.Execute(p, w, s, mpi.Phantom(s.Msg), mpi.Phantom(s.Msg*p.Size()))
		} else {
			sched.ExecuteGoal(p, w.CommWorld(), s, g, phantom, phantom, sched.ChargeRed)
		}
		if p.Now() > worst {
			worst = p.Now()
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return w.Engine().Stats().Events, sim.Duration(worst).Micros(), nil
}

// irGate is every schedule source ir-pricing prices, as verify variants
// at a small shape with real payloads.
func irGate() []verify.Scenario {
	var out []verify.Scenario
	for _, alg := range []string{"sched-mha", "sched-ring", "sched-rd", "compose-ag", "compose-rs", "compose-ar"} {
		out = append(out, verify.Scenario{Alg: alg, Nodes: 2, PPN: 4, HCAs: 2, Msg: 64, Seed: 1})
	}
	return out
}

func (r *irPricing) check(ph *phase) { gate(ph, irGate()) }
