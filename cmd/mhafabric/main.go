// Command mhafabric inspects the structured inter-node networks of
// internal/fabric and sweeps the allgather family across them.
//
//	mhafabric describe -fabric ft:arity=2,levels=2,over=2 -nodes 8
//	mhafabric route -fabric dfly:groups=2,routers=2,nodes=2 -nodes 8 -src 0 -dst 7
//	mhafabric route -fabric ft:arity=2,levels=2,over=2 -nodes 4 -all
//	mhafabric sweep            # quick fabric x algorithm table
//	mhafabric sweep -full
//
// describe prints the link structure a spec builds over a cluster; route
// prints the deterministic shared-link path between two nodes (or every
// pair); sweep reruns the bench fabric experiment, so its output matches
// the checked-in golden byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"

	"mha/internal/bench"
	"mha/internal/fabric"
	"mha/internal/netmodel"
	"mha/internal/world"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "describe":
		describe(os.Args[2:])
	case "route":
		route(os.Args[2:])
	case "sweep":
		sweep(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mhafabric <describe|route|sweep> [flags]")
	os.Exit(2)
}

// flags returns the flag set of describe and route with the cluster and
// fabric flags bound, and the network builder to call after parsing.
func flags(name string) (*flag.FlagSet, *world.Spec, func() *fabric.Network) {
	fs := flag.NewFlagSet("mhafabric "+name, flag.ExitOnError)
	w := &world.Spec{Nodes: 8, PPN: 2, HCAs: 2, Fabric: "ft:arity=2,levels=2,over=2"}
	mkTopo := w.BindFlags(fs, "fabric", "nodes", "ppn", "hcas")
	return fs, w, func() *fabric.Network {
		topo, err := mkTopo()
		if err != nil {
			fatal(err)
		}
		// mkTopo has validated the canonical fabric text ("" is flat).
		nw, err := fabric.Build(nil, fabric.MustParse(w.Fabric), topo, netmodel.Thor())
		if err != nil {
			fatal(err)
		}
		return nw
	}
}

func describe(args []string) {
	fs, _, build := flags("describe")
	_ = fs.Parse(args)
	build().Describe(os.Stdout)
}

func route(args []string) {
	fs, w, build := flags("route")
	src := fs.Int("src", 0, "source node")
	dst := fs.Int("dst", 1, "destination node")
	all := fs.Bool("all", false, "print every pairwise route")
	_ = fs.Parse(args)
	nw := build()
	printRoute := func(s, d int) {
		fmt.Printf("node%d -> node%d:", s, d)
		links := nw.Route(s, d)
		if len(links) == 0 {
			fmt.Print(" (no shared links)")
		}
		for _, l := range links {
			fmt.Printf(" %s", l.Name)
		}
		fmt.Println()
	}
	if *all {
		for s := 0; s < w.Nodes; s++ {
			for d := 0; d < w.Nodes; d++ {
				if s != d {
					printRoute(s, d)
				}
			}
		}
		return
	}
	if *src < 0 || *src >= w.Nodes || *dst < 0 || *dst >= w.Nodes {
		fatal(fmt.Errorf("mhafabric: route %d -> %d outside a %d-node cluster", *src, *dst, w.Nodes))
	}
	printRoute(*src, *dst)
}

func sweep(args []string) {
	fs := flag.NewFlagSet("mhafabric sweep", flag.ExitOnError)
	full := fs.Bool("full", false, "run the paper-scale sweep instead of the quick one")
	_ = fs.Parse(args)
	ex, ok := bench.ByID("fabric")
	if !ok {
		fatal(fmt.Errorf("mhafabric: the fabric experiment is not registered"))
	}
	sc := bench.Quick
	if *full {
		sc = bench.Full
	}
	if err := ex.Run(os.Stdout, sc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
