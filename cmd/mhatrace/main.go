// Command mhatrace renders communication timelines of the simulated
// collectives as ASCII Gantt charts — the reproduction of the paper's
// Figure 2 (a TAU trace of the flat ring allgather on 2 nodes x 2 PPN,
// exposing the intra-node bottleneck) and a tool for inspecting any of the
// implemented algorithms.
//
// Usage:
//
//	mhatrace                                  # Figure 2 (ring, 2x2)
//	mhatrace -alg mha-inter -nodes 4 -ppn 4   # the proposed design
//	mhatrace -alg mha-intra -ppn 4 -listing   # per-event log
package main

import (
	"flag"
	"fmt"
	"os"

	"mha/internal/collectives"
	"mha/internal/core"
	"mha/internal/mpi"
	"mha/internal/trace"
	"mha/internal/world"
)

func main() {
	mkTopo := (&world.Spec{Nodes: 2, PPN: 2, HCAs: 2}).BindFlags(flag.CommandLine, "nodes", "ppn", "hcas")
	var (
		alg     = flag.String("alg", "ring", "algorithm: ring | rd | bruck | direct | mha-intra | mha-inter | kandalla | mamidala")
		size    = flag.Int("size", 256<<10, "per-rank message size in bytes")
		width   = flag.Int("width", 100, "timeline width in columns")
		listing = flag.Bool("listing", false, "print the per-event log instead of the chart")
		chrome  = flag.String("chrome", "", "write a Chrome trace-event JSON file (chrome://tracing)")
	)
	flag.Parse()

	run, ok := algorithms(*alg)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		os.Exit(2)
	}

	topo, err := mkTopo()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rec := trace.New()
	w := mpi.New(mpi.Config{
		Topo:    topo,
		Tracer:  rec,
		Phantom: true,
	})
	err = w.Run(func(p *mpi.Proc) {
		run(p, w, mpi.Phantom(*size), mpi.Phantom(*size*p.Size()))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d events to %s\n", rec.Len(), *chrome)
		return
	}

	fmt.Printf("%s allgather, %v, %d bytes/rank\n", *alg, w.Topo(), *size)
	if *listing {
		fmt.Print(rec.Listing())
		return
	}
	fmt.Print(rec.Timeline(*width))
}

func algorithms(name string) (func(*mpi.Proc, *mpi.World, mpi.Buf, mpi.Buf), bool) {
	switch name {
	case "ring":
		return flat(collectives.RingAllgather), true
	case "rd":
		return flat(collectives.RDAllgather), true
	case "bruck":
		return flat(collectives.BruckAllgather), true
	case "direct":
		return flat(collectives.DirectSpreadAllgather), true
	case "mha-intra":
		return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			core.MHAIntraAllgather(p, w.CommWorld(), send, recv)
		}, true
	case "mha-inter":
		return core.MHAInterAllgather, true
	case "kandalla":
		return collectives.KandallaAllgather, true
	case "mamidala":
		return collectives.MamidalaAllgather, true
	default:
		return nil, false
	}
}

func flat(f func(*mpi.Proc, *mpi.Comm, mpi.Buf, mpi.Buf)) func(*mpi.Proc, *mpi.World, mpi.Buf, mpi.Buf) {
	return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		f(p, w.CommWorld(), send, recv)
	}
}
