// Command mhatune generates, inspects and verifies tuning tables for the
// MHA collectives — the simulator-side equivalent of the measured
// selection tables production MPI libraries ship.
//
// Usage:
//
//	mhatune -nodes 16 -ppn 32 -o thor-16x32.json   # build and save
//	mhatune -show thor-16x32.json                  # print a saved table
//	mhatune -verify thor-16x32.json                # re-measure and compare
//	mhatune -nodes 4 -ppn 8 -o-cache warm.json     # export in mhatuned cache format
package main

import (
	"flag"
	"fmt"
	"os"

	"mha/internal/core"
	"mha/internal/netmodel"
	"mha/internal/topology"
	"mha/internal/tuner"
	"mha/internal/world"
)

func main() {
	mkTopo := (&world.Spec{Nodes: 8, PPN: 32, HCAs: 2}).BindFlags(flag.CommandLine, "nodes", "ppn", "hcas")
	var (
		out      = flag.String("o", "", "write the generated table to this file (default stdout)")
		outCache = flag.String("o-cache", "", "also export the table in mhatuned's cache format to this file")
		show     = flag.String("show", "", "print a saved table and exit")
		verify   = flag.String("verify", "", "re-measure a saved table's selections and report drift")
	)
	flag.Parse()

	prm := netmodel.Thor()

	if *show != "" {
		t := load(*show)
		fmt.Printf("tuning table for %d nodes x %d ppn x %d HCAs\n", t.Nodes, t.PPN, t.HCAs)
		fmt.Printf("%-12s %-6s %10s %12s %12s\n", "<= bytes", "alg", "offload d", "ring (us)", "rd (us)")
		for _, e := range t.Entries {
			fmt.Printf("%-12d %-6s %10.2f %12.2f %12.2f\n", e.MaxBytes, e.Alg, e.OffloadD, e.RingUS, e.RDUS)
		}
		return
	}

	if *verify != "" {
		t := load(*verify)
		topo := topology.New(t.Nodes, t.PPN, t.HCAs)
		fresh := core.BuildTuningTable(topo, prm, sizesOf(t))
		drift := 0
		for i, e := range t.Entries {
			if fresh.Entries[i].Alg != e.Alg {
				fmt.Printf("drift at <=%d bytes: table says %s, measurement says %s\n",
					e.MaxBytes, e.Alg, fresh.Entries[i].Alg)
				drift++
			}
		}
		if drift == 0 {
			fmt.Printf("table verified: all %d selections reproduce\n", len(t.Entries))
			return
		}
		os.Exit(1)
	}

	topo, err := mkTopo()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sizes := []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	fmt.Fprintf(os.Stderr, "measuring %d size classes on %v...\n", len(sizes), topo)
	t := core.BuildTuningTable(topo, prm, sizes)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := t.Save(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	// -o-cache: the same measurements, re-lowered into schedule decisions
	// in mhatuned's cache format, so a measured machine profile
	// warm-starts the daemon.
	if *outCache != "" {
		decs, err := tuner.ImportTuningTable(prm, t)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*outCache)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tuner.SaveDecisions(f, decs); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cache entries)\n", *outCache, len(decs))
	}
}

func load(path string) core.TuningTable {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	t, err := core.LoadTuningTable(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return t
}

func sizesOf(t core.TuningTable) []int {
	out := make([]int, len(t.Entries))
	for i, e := range t.Entries {
		out[i] = e.MaxBytes
	}
	return out
}
