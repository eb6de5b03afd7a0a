package main

import (
	"fmt"
	"math/rand"
	"time"

	"mha/internal/collectives"
	"mha/internal/compose"
	"mha/internal/core"
	"mha/internal/fabric"
	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/verify"
)

// sweepFamilies are paper-sweep's algorithm families; each reports its
// host run time and modeled µs as per-layer metrics.
var sweepFamilies = []string{
	"collectives.hpcx",
	"collectives.mvapich2x",
	"core.mha",
	"collectives.ring16",
	"core.mha_allreduce",
	"collectives.hier_bruck_ml",
	"core.mha_faults",
}

// sweepFabric is the 2:1 fat-tree of the fabric experiment's crossover
// point, where hier-bruck-ml beats every flat allgather.
const sweepFabric = "ft:arity=2,levels=2,over=2"

// mhaAllreduceVariant is the Fig. 15 MHA allreduce packaged for verify's
// byte oracle; it is not one of verify's built-in variants.
const mhaAllreduceVariant = "perfbench-mha-allreduce"

func init() {
	verify.Register(verify.Algorithm{
		Name: mhaAllreduceVariant, Coll: compose.Allreduce, BlockOnly: true,
		Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			recv.CopyFrom(send)
			core.MHAAllreduce(p, w, recv, compose.ByteSum{})
		},
	})
}

// demoFaults is the ext-faults schedule of the tier-1 probe: rail 1 of
// node 0 down for 40 µs, then every node's rail 1 at half bandwidth.
func demoFaults() *faults.Schedule {
	return faults.MustNew(
		faults.Fault{Kind: faults.Down, Node: 0, Rail: 1, Until: sim.Time(40 * sim.Microsecond)},
		faults.Fault{Kind: faults.Degrade, Node: faults.AllNodes, Rail: 1,
			Fraction: 0.5, From: sim.Time(40 * sim.Microsecond)},
	)
}

// sweep is the paper-sweep workload: each op simulates one collective on
// a fresh phantom world with Thor parameters.
type sweep struct {
	small bool
	seed  int64
	items []item
}

// sweepMenu is the seeded menu: the Fig. 12/13 comparison at 8x32x2,
// the flat ring at 16x32x2, the Fig. 15 MHA allreduce, hier-bruck-ml on
// the 2:1 fat-tree and MHA under the ext-faults schedule. The seed only
// nudges each message size by up to 3/32.
func sweepMenu(seed int64, small bool) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	prm := netmodel.Thor()
	thor := minShape(small, 8, 32, 2)
	var items []item
	add := func(family, kind string, topo topology.Cluster, m int, cfg mpi.Config,
		body func(p *mpi.Proc, w *mpi.World)) {
		cfg.Topo, cfg.Params, cfg.Phantom = topo, prm, true
		items = append(items, item{
			name:   fmt.Sprintf("%s/%dx%dx%d/%dB", family, topo.Nodes, topo.PPN, topo.HCAs, m),
			family: family, kind: kind,
			run: func(c *opCtx) (float64, error) { return simRun(c, family, cfg, body) },
		})
	}
	allgather := func(run func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf), m int) func(*mpi.Proc, *mpi.World) {
		return func(p *mpi.Proc, w *mpi.World) { run(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size())) }
	}
	profiles := []struct {
		family string
		prof   collectives.Profile
	}{
		{"collectives.hpcx", collectives.HPCX()},
		{"collectives.mvapich2x", collectives.MVAPICH2X()},
		{"core.mha", core.Profile()},
	}
	for _, nominal := range []int{1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20} {
		m := jitter(rng, nominal)
		for _, pr := range profiles {
			add(pr.family, pr.family, thor, m, mpi.Config{}, allgather(pr.prof.Allgather, m))
		}
	}
	m := jitter(rng, 8<<10)
	add("collectives.ring16", "ring16", minShape(small, 16, 32, 2), m, mpi.Config{},
		allgather(func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			collectives.RingAllgather(p, w.CommWorld(), send, recv)
		}, m))
	unit := 8 * thor.Size()
	n := (jitter(rng, 1<<20) + unit - 1) / unit * unit
	mha := core.Profile()
	add("core.mha_allreduce", "allreduce", thor, n, mpi.Config{}, func(p *mpi.Proc, w *mpi.World) {
		mha.Allreduce(p, w, mpi.Phantom(n), collectives.SumF64())
	})
	spec, err := fabric.ParseSpec(sweepFabric)
	if err != nil {
		return nil, err
	}
	m = jitter(rng, 64<<10)
	add("collectives.hier_bruck_ml", "fabric", minShape(small, 8, 4, 2), m, mpi.Config{Fabric: &spec},
		allgather(func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			collectives.HierBruckMLAllgather(p, w.CommWorld(), send, recv)
		}, m))
	m = jitter(rng, 64<<10)
	add("core.mha_faults", "faults", minShape(small, 4, 4, 2), m, mpi.Config{Faults: demoFaults()},
		allgather(core.MHAAllgather, m))
	return items, nil
}

// simRun builds a phantom world (span mpi.New), runs body on every rank
// (span mpi.Run) and returns the makespan in virtual µs. On traced ops it
// records the engine's event and process counts, the heap allocations
// made during the run, and the rails' busy share of the makespan.
func simRun(c *opCtx, family string, cfg mpi.Config, body func(p *mpi.Proc, w *mpi.World)) (float64, error) {
	h := c.tr.begin("mpi.New")
	w := mpi.New(cfg)
	newDur := c.tr.end(h)
	a0 := c.allocs()
	var worst sim.Time
	h = c.tr.begin("mpi.Run")
	err := w.Run(func(p *mpi.Proc) {
		body(p, w)
		if p.Now() > worst {
			worst = p.Now()
		}
	})
	runDur := c.tr.end(h)
	a1 := c.allocs()
	if err != nil {
		return 0, err
	}
	if c.acc != nil {
		st := w.Engine().Stats()
		c.acc.add("ops", 1)
		c.acc.add("events", float64(st.Events))
		c.acc.add("procs", float64(st.Processes))
		c.acc.add("allocs", float64(a1-a0))
		c.acc.add("new_ns", float64(newDur))
		c.acc.add("run_ns", float64(runDur))
		c.acc.sample(family+".run_ms", float64(runDur)/1e6)
		var busy float64
		rails := w.RailStats()
		for _, r := range rails {
			busy += float64(r.TxBusy+r.RxBusy) / 2
		}
		if worst > 0 && len(rails) > 0 {
			c.acc.sample("rail_busy_frac", busy/(float64(worst)*float64(len(rails))))
		}
	}
	return sim.Duration(worst).Micros(), nil
}

// simLayers turns simRun's accumulated numbers into the sim and mpi
// per-layer metrics.
func simLayers(a *acc, out map[string]float64) {
	out["sim.events_per_op"] = a.ratio("events", "ops")
	out["sim.procs_per_op"] = a.ratio("procs", "ops")
	out["sim.allocs_per_event"] = a.ratio("allocs", "events")
	out["sim.ns_per_event"] = a.ratio("run_ns", "events")
	if ns := a.sums["run_ns"]; ns > 0 {
		out["sim.events_per_s"] = a.sums["events"] / ns * 1e9
	}
	out["mpi.world_new_ms"] = a.ratio("new_ns", "ops") / 1e6
	out["mpi.run_ms"] = a.ratio("run_ns", "ops") / 1e6
	out["mpi.rail_busy_frac"] = mean(a.samples["rail_busy_frac"])
}

func (s *sweep) setup(seed int64) error {
	items, err := sweepMenu(seed, s.small)
	if err != nil {
		return err
	}
	s.seed, s.items = seed, items
	return warmUp(items)
}

func (s *sweep) measure(d time.Duration, traced bool) (*phase, error) {
	ph, a, ref := runRounds(s.items, s.seed, d, traced, 90)
	ph.layer = map[string]float64{}
	simLayers(a, ph.layer)
	for _, f := range sweepFamilies {
		var mods []float64
		for i, it := range s.items {
			if it.family == f {
				mods = append(mods, ref[i])
			}
		}
		ph.layer[f+".run_ms_p50"] = median(a.samples[f+".run_ms"])
		ph.layer[f+".modeled_us"] = geomean(mods)
	}
	return ph, nil
}

// sweepGate is every algorithm paper-sweep times, at a small shape with
// real payloads: the profiles' flat algorithms (HPC-X: bruck, ring;
// MVAPICH2-X: rd, two-level), MHA, the allreduce, hier-bruck-ml on the
// fat-tree, and MHA under the fault schedule.
func sweepGate() []verify.Scenario {
	base := verify.Scenario{Nodes: 2, PPN: 4, HCAs: 2, Msg: 96, Seed: 1}
	var out []verify.Scenario
	for _, alg := range []string{"bruck", "ring", "rd", "two-level", "mha", mhaAllreduceVariant} {
		sc := base
		sc.Alg = alg
		out = append(out, sc)
	}
	out = append(out,
		verify.Scenario{Alg: "hier-bruck-ml", Nodes: 4, PPN: 2, HCAs: 2, Msg: 4096, Seed: 1, Fabric: sweepFabric},
		verify.Scenario{Alg: "mha", Nodes: 4, PPN: 2, HCAs: 2, Msg: 4096, Seed: 1, Faults: demoFaults()},
	)
	return out
}

func (s *sweep) check(ph *phase) { gate(ph, sweepGate()) }

// gate runs each scenario once through verify.RunOnce: the byte-exact
// oracle, the teardown audit and clock monotonicity. Each counts as one
// attempted op; any violation fails it.
func gate(ph *phase, scs []verify.Scenario) {
	for _, sc := range scs {
		ph.attempted++
		res := verify.RunOnce(sc, nil)
		if len(res.Violations) > 0 {
			ph.fail("verify %s: %v", sc.Spec(), res.Violations[0])
		}
	}
	ph.note("correctness gate: %d verify.RunOnce scenarios", len(scs))
}
