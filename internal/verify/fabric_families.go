package verify

// The fabric scenario families put the locality-aware allgathers on
// non-flat fabrics: every variant runs on an oversubscribed fat-tree
// ("fabric-ft-2:1") and a dragonfly ("fabric-dfly"), each in three
// environments — homogeneous block layout, heterogeneous cyclic layout
// (mixed 1/2-HCA nodes with asymmetric rails), and a rail fault. The
// campaign's full instrumentation applies: byte oracle, teardown audit,
// clock monotonicity and the determinism cross-check.

// localityVariants are the locality-aware allgathers under family test.
var localityVariants = []string{
	"locality-p2p", "locality-ring", "locality-bruck", "hier-bruck-ml",
}

// FabricFamilies returns the named fabric scenario families as replayable
// spec lines (parse with ParseSpec, judge with Check).
func FabricFamilies() map[string][]string {
	fams := map[string][]string{}
	envs := []string{
		// Homogeneous, block layout, oversubscribed links in the hot path.
		"nodes=4 ppn=2 hcas=2 msg=4096",
		// Mixed 1/2-HCA nodes, asymmetric rails, cyclic layout, odd bytes.
		"nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5",
		// A rail outage mid-run on a node feeding a shared trunk.
		"nodes=4 ppn=2 hcas=2 msg=32768 faults=down node=0 rail=1 until=80us",
	}
	for _, alg := range localityVariants {
		for _, env := range envs {
			fams["fabric-ft-2:1"] = append(fams["fabric-ft-2:1"],
				"alg="+alg+" fabric=ft:arity=2,levels=2,over=2 "+env)
			fams["fabric-dfly"] = append(fams["fabric-dfly"],
				"alg="+alg+" fabric=dfly:groups=2,routers=2,nodes=1,global=2 "+env)
		}
	}
	return fams
}
