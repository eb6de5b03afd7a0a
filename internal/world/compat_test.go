package world_test

import (
	"fmt"
	"testing"

	"mha/internal/compose"
	"mha/internal/explore"
	"mha/internal/verify"
)

// The compatibility tables pin, for every spec string the repository
// ships (tests, README.md, DESIGN.md, CI and the cmd usage comments, plus
// the generated fabric families), the value each grammar that embeds the
// world keys parses it to. The pins were recorded before the world
// grammar replaced the per-package parsers; "error" means the string was
// rejected. Renderings may reorder keys or omit defaults, but each must
// parse back to the pinned value and be a fixed point.

type specPin struct{ in, verify, explore string }

type hierPin struct{ in, topo string }

func pinScenario(sc verify.Scenario) string {
	f := ""
	if sc.Faults.Len() > 0 {
		f = sc.Faults.String()
	}
	return fmt.Sprintf("alg=%s nodes=%d ppn=%d hcas=%d sockets=%d layout=%d msg=%d seed=%d jitter=%g blind=%t fabric=%q nodehcas=%v railbw=%v faults=%q",
		sc.Alg, sc.Nodes, sc.PPN, sc.HCAs, sc.Sockets, int(sc.Layout), sc.Msg, sc.Seed, sc.Jitter, sc.Blind, sc.Fabric, sc.NodeHCAs, sc.RailBW, f)
}

func pinExplore(s explore.Spec) string {
	return fmt.Sprintf("alg=%s nodes=%d ppn=%d hcas=%d msg=%d fabric=%q fault=%d/%d choices=%v",
		s.Alg, s.Nodes, s.PPN, s.HCAs, s.Msg, s.Fabric, s.Fault.Node, s.Fault.Rail, s.Choices)
}

func pinHierarchy(h compose.Hierarchy) string {
	t := h.Topo
	return fmt.Sprintf("nodes=%d ppn=%d hcas=%d layout=%d sockets=%d nodehcas=%v railbw=%v",
		t.Nodes, t.PPN, t.HCAs, int(t.Layout), t.Sockets, t.NodeHCAs, t.RailBW)
}

// checkPin parses in, compares the pinned value, and checks that the
// rendering reparses to the same value and renders identically again.
func checkPin[T any](t *testing.T, grammar, in, want string, parse func(string) (T, error), pin func(T) string, render func(T) string) {
	t.Helper()
	v, err := parse(in)
	if err != nil {
		if want != "error" {
			t.Errorf("%s: %q no longer parses: %v", grammar, in, err)
		}
		return
	}
	if got := pin(v); got != want {
		t.Errorf("%s: %q parses to\n  %s\nwant\n  %s", grammar, in, got, want)
		return
	}
	line := render(v)
	again, err := parse(line)
	if err != nil {
		t.Errorf("%s: rendering %q of %q does not reparse: %v", grammar, line, in, err)
		return
	}
	if pin(again) != want || render(again) != line {
		t.Errorf("%s: rendering %q of %q is not a fixed point", grammar, line, in)
	}
}

func TestShippedSpecsParseUnchanged(t *testing.T) {
	// The generated fabric-family lines were pinned as generated then; the
	// generator may respell them, but each must still parse to a pinned
	// scenario.
	pinned := map[string]bool{}
	for _, c := range specCompat {
		pinned[c.verify] = true
	}
	for fam, lines := range verify.FabricFamilies() {
		for _, line := range lines {
			if sc, err := verify.ParseSpec(line); err != nil || !pinned[pinScenario(sc)] {
				t.Errorf("fabric family %s line %q no longer parses to a pinned scenario (%v)", fam, line, err)
			}
		}
	}
	for _, c := range specCompat {
		checkPin(t, "verify", c.in, c.verify, verify.ParseSpec, pinScenario, verify.Scenario.Spec)
		checkPin(t, "explore", c.in, c.explore, explore.ParseSpec, pinExplore, explore.Spec.String)
	}
	for _, c := range hierCompat {
		checkPin(t, "hierarchy", c.in, c.topo, compose.ParseHierarchy, pinHierarchy, compose.Hierarchy.String)
	}
}

var specCompat = []specPin{
	{"alg=cluster-contended-2 nodes=2 ppn=2 hcas=2 msg=4096",
		"alg=cluster-contended-2 nodes=2 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=cluster-contended-2 nodes=2 ppn=2 hcas=2 msg=4096 fabric=\"\" fault=-1/-1 choices=[]"},
	{"alg=cluster-contended-2 nodes=2 ppn=4 hcas=2 layout=cyclic msg=1024",
		"alg=cluster-contended-2 nodes=2 ppn=4 hcas=2 sockets=0 layout=1 msg=1024 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=cluster-contended-2 nodes=2 ppn=4 hcas=2 msg=8192 jitter=0.05 seed=7",
		"alg=cluster-contended-2 nodes=2 ppn=4 hcas=2 sockets=0 layout=0 msg=8192 seed=7 jitter=0.05 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=cluster-contended-2 nodes=4 ppn=2 hcas=2 msg=65536 faults=down node=0 rail=1 until=80us; degrade node=2 rail=0 frac=0.5",
		"alg=cluster-contended-2 nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=65536 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\\ndegrade node=2 rail=0 frac=0.5 from=0ns until=forever\"",
		"error"},
	{"alg=cluster-contended-2 nodes=4 ppn=4 hcas=2 msg=65536",
		"alg=cluster-contended-2 nodes=4 ppn=4 hcas=2 sockets=0 layout=0 msg=65536 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=cluster-contended-4 nodes=2 ppn=2 hcas=2 msg=0",
		"alg=cluster-contended-4 nodes=2 ppn=2 hcas=2 sockets=0 layout=0 msg=0 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=cluster-contended-4 nodes=2 ppn=2 hcas=2 msg=0 fabric=\"\" fault=-1/-1 choices=[]"},
	{"alg=cluster-contended-4 nodes=3 ppn=3 hcas=2 msg=257",
		"alg=cluster-contended-4 nodes=3 ppn=3 hcas=2 sockets=0 layout=0 msg=257 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=cluster-contended-4 nodes=4 ppn=2 hcas=2 msg=32768 blind=1 faults=down node=1 rail=0 until=60us",
		"alg=cluster-contended-4 nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=true fabric=\"\" nodehcas=[] railbw=[] faults=\"down node=1 rail=0 from=0ns until=60us\"",
		"error"},
	{"alg=cluster-contended-4 nodes=4 ppn=4 hcas=2 msg=16384",
		"alg=cluster-contended-4 nodes=4 ppn=4 hcas=2 sockets=0 layout=0 msg=16384 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=locality-bruck nodes=2 ppn=2 hcas=2 msg=8 nodehcas=1/2",
		"alg=locality-bruck nodes=2 ppn=2 hcas=2 sockets=0 layout=0 msg=8 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[1 2] railbw=[] faults=\"\"",
		"error"},
	{"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=64 fabric=ft:arity=2,levels=2,over=2",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=64 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=64 fabric=\"ft:arity=2,levels=2,over=2\" fault=-1/-1 choices=[]"},
	{"alg=mha nodes=2 ppn=2 hcas=1 msg=13 faults=none",
		"alg=mha nodes=2 ppn=2 hcas=1 sockets=0 layout=0 msg=13 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=mha nodes=2 ppn=2 hcas=2 msg=257 faults=down node=0 rail=1 until=40us",
		"alg=mha nodes=2 ppn=2 hcas=2 sockets=0 layout=0 msg=257 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=40us\"",
		"error"},
	{"alg=mha nodes=2 ppn=2 hcas=2 msg=257 faults=none",
		"alg=mha nodes=2 ppn=2 hcas=2 sockets=0 layout=0 msg=257 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=mha nodes=2 ppn=4 hcas=2 msg=257 faults=down node=0 rail=1 until=40us",
		"alg=mha nodes=2 ppn=4 hcas=2 sockets=0 layout=0 msg=257 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=40us\"",
		"error"},
	{"alg=mha-intra nodes=2 ppn=2",
		"error",
		"error"},
	{"alg=no-such-algorithm nodes=2",
		"error",
		"error"},
	{"alg=no-such-variant nodes=2",
		"error",
		"error"},
	{"alg=nonsense nodes=2",
		"error",
		"error"},
	{"alg=rd nodes=2 ppn=1 hcas=2 msg=0 fault=node1.rail0 sched=0.2.1",
		"error",
		"alg=rd nodes=2 ppn=1 hcas=2 msg=0 fabric=\"\" fault=1/0 choices=[0 2 1]"},
	{"alg=ring nodes=-1",
		"error",
		"error"},
	{"alg=ring nodes=0",
		"error",
		"error"},
	{"alg=ring nodes=1 ppn=2 hcas=1 msg=4 fault=none sched=9.9.9",
		"error",
		"alg=ring nodes=1 ppn=2 hcas=1 msg=4 fabric=\"\" fault=-1/-1 choices=[9 9 9]"},
	{"alg=ring nodes=1 ppn=2 hcas=1 msg=4 fault=none sched=canonical",
		"error",
		"alg=ring nodes=1 ppn=2 hcas=1 msg=4 fabric=\"\" fault=-1/-1 choices=[]"},
	{"alg=ring nodes=2 fault=node0.railxy",
		"error",
		"error"},
	{"alg=ring nodes=2 fault=node5.rail0",
		"error",
		"error"},
	{"alg=ring nodes=2 ppn=1 layout=hexagonal",
		"error",
		"error"},
	{"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fabric=flat",
		"alg=ring nodes=2 ppn=2 hcas=2 sockets=0 layout=0 msg=8 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fabric=\"\" fault=-1/-1 choices=[]"},
	{"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fault=node0.rail1 sched=0.2.1",
		"error",
		"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fabric=\"\" fault=0/1 choices=[0 2 1]"},
	{"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fault=none sched=0.2.1",
		"error",
		"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fabric=\"\" fault=-1/-1 choices=[0 2 1]"},
	{"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fault=none sched=canonical",
		"error",
		"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fabric=\"\" fault=-1/-1 choices=[]"},
	{"alg=ring nodes=2 sched=0.-1.2",
		"error",
		"error"},
	{"alg=ring nodes=2 sched=a.b",
		"error",
		"error"},
	{"alg=ring nodes=4 ppn=4",
		"alg=ring nodes=4 ppn=4 hcas=1 sockets=0 layout=0 msg=0 seed=1 jitter=0 blind=false fabric=\"\" nodehcas=[] railbw=[] faults=\"\"",
		"error"},
	{"alg=ring nodes=6 ppn=1 hcas=1 msg=8 fabric=dfly:groups=2,routers=2,nodes=2",
		"error",
		"error"},
	{"alg=ring nodes=99999999999999999999",
		"error",
		"error"},
	{"alg=ring nodes=x",
		"error",
		"error"},
	{"alg=sched-mha nodes=1 ppn=3 hcas=1 msg=2 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2",
		"error",
		"alg=sched-mha nodes=1 ppn=3 hcas=1 msg=2 fabric=\"\" fault=-1/-1 choices=[0 0 0 0 0 0 0 0 0 0 0 0 0 2]"},
	{"alg=locality-p2p nodes=4 ppn=2 hcas=2 msg=4096 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" fault=-1/-1 choices=[]"},
	{"alg=locality-p2p nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=locality-p2p nodes=4 ppn=2 hcas=2 msg=32768 fabric=dfly:groups=2,routers=2,nodes=1,global=2 faults=down node=0 rail=1 until=80us",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
	{"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=4096 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" fault=-1/-1 choices=[]"},
	{"alg=locality-ring nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=32768 fabric=dfly:groups=2,routers=2,nodes=1,global=2 faults=down node=0 rail=1 until=80us",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
	{"alg=locality-bruck nodes=4 ppn=2 hcas=2 msg=4096 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" fault=-1/-1 choices=[]"},
	{"alg=locality-bruck nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=locality-bruck nodes=4 ppn=2 hcas=2 msg=32768 fabric=dfly:groups=2,routers=2,nodes=1,global=2 faults=down node=0 rail=1 until=80us",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
	{"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 msg=4096 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" fault=-1/-1 choices=[]"},
	{"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 msg=32768 fabric=dfly:groups=2,routers=2,nodes=1,global=2 faults=down node=0 rail=1 until=80us",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"dfly:groups=2,routers=2,nodes=1,local=1,global=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
	{"alg=locality-p2p nodes=4 ppn=2 hcas=2 msg=4096 fabric=ft:arity=2,levels=2,over=2",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"ft:arity=2,levels=2,over=2\" fault=-1/-1 choices=[]"},
	{"alg=locality-p2p nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=ft:arity=2,levels=2,over=2",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=locality-p2p nodes=4 ppn=2 hcas=2 msg=32768 fabric=ft:arity=2,levels=2,over=2 faults=down node=0 rail=1 until=80us",
		"alg=locality-p2p nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
	{"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=4096 fabric=ft:arity=2,levels=2,over=2",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"ft:arity=2,levels=2,over=2\" fault=-1/-1 choices=[]"},
	{"alg=locality-ring nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=ft:arity=2,levels=2,over=2",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=32768 fabric=ft:arity=2,levels=2,over=2 faults=down node=0 rail=1 until=80us",
		"alg=locality-ring nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
	{"alg=locality-bruck nodes=4 ppn=2 hcas=2 msg=4096 fabric=ft:arity=2,levels=2,over=2",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"ft:arity=2,levels=2,over=2\" fault=-1/-1 choices=[]"},
	{"alg=locality-bruck nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=ft:arity=2,levels=2,over=2",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=locality-bruck nodes=4 ppn=2 hcas=2 msg=32768 fabric=ft:arity=2,levels=2,over=2 faults=down node=0 rail=1 until=80us",
		"alg=locality-bruck nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
	{"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 msg=4096 fabric=ft:arity=2,levels=2,over=2",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=4096 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"\"",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 msg=4096 fabric=\"ft:arity=2,levels=2,over=2\" fault=-1/-1 choices=[]"},
	{"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5 fabric=ft:arity=2,levels=2,over=2",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 sockets=0 layout=1 msg=257 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[2 1 2 1] railbw=[1 0.5] faults=\"\"",
		"error"},
	{"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 msg=32768 fabric=ft:arity=2,levels=2,over=2 faults=down node=0 rail=1 until=80us",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 sockets=0 layout=0 msg=32768 seed=1 jitter=0 blind=false fabric=\"ft:arity=2,levels=2,over=2\" nodehcas=[] railbw=[] faults=\"down node=0 rail=1 from=0ns until=80us\"",
		"error"},
}

var hierCompat = []hierPin{
	{"world nodes=0 ppn=-1 hcas=9999999", "error"},
	{"world nodes=0 ppn=2", "error"},
	{"world nodes=1 ppn=1", "nodes=1 ppn=1 hcas=1 layout=0 sockets=0 nodehcas=[] railbw=[]"},
	{"world nodes=1 ppn=1 hcas=1 layout=block", "nodes=1 ppn=1 hcas=1 layout=0 sockets=0 nodehcas=[] railbw=[]"},
	{"world nodes=2", "error"},
	{"world nodes=2 ppn=2 layout=banana", "error"},
	{"world nodes=2 ppn=2 nodes=2", "error"},
	{"world nodes=2 ppn=2 nodes=3", "error"},
	{"world nodes=2 ppn=2 rails=2", "error"},
	{"world nodes=2 ppn=3", "nodes=2 ppn=3 hcas=1 layout=0 sockets=0 nodehcas=[] railbw=[]"},
	{"world nodes=2 ppn=4 hcas=4 layout=cyclic", "nodes=2 ppn=4 hcas=4 layout=1 sockets=0 nodehcas=[] railbw=[]"},
	{"world nodes=2 ppn=4 hcas=4 layout=cyclic sockets=2", "nodes=2 ppn=4 hcas=4 layout=1 sockets=2 nodehcas=[] railbw=[]"},
	{"world nodes=3 ppn=6 hcas=2 layout=block sockets=2", "nodes=3 ppn=6 hcas=2 layout=0 sockets=2 nodehcas=[] railbw=[]"},
	{"world nodes=4 ppn=8 hcas=2 layout=block", "nodes=4 ppn=8 hcas=2 layout=0 sockets=0 nodehcas=[] railbw=[]"},
	{"world nodes=4 ppn=8 hcas=2 layout=block sockets=2", "nodes=4 ppn=8 hcas=2 layout=0 sockets=2 nodehcas=[] railbw=[]"},
}
