package world_test

import (
	"strings"
	"testing"

	"mha/internal/compose"
	"mha/internal/world"
)

// FuzzParseWorld drives the world grammar with arbitrary input, both as
// a bare world line and as a compose hierarchy line. Properties: neither
// parser panics; whatever Parse accepts validates, and String renders it
// as a fixed point that reparses to the same shape; a fabric-free shape
// also round-trips as the "world "-prefixed hierarchy form; and whatever
// ParseHierarchy accepts round-trips through its own String.
func FuzzParseWorld(f *testing.F) {
	for _, seed := range []string{
		// Hierarchy lines.
		"world nodes=4 ppn=8 hcas=2 layout=block",
		"world nodes=2 ppn=4 hcas=4 layout=cyclic sockets=2",
		"world nodes=1 ppn=1",
		"world nodes=0 ppn=-1 hcas=9999999",
		"world nodes=2 ppn=2 nodes=2",
		"worldnodes=2",
		// World fields of the explore repro-spec seeds.
		"nodes=2 ppn=2 hcas=2",
		"nodes=2 ppn=1 hcas=2",
		"nodes=1 ppn=3 hcas=1",
		"nodes=4 ppn=4",
		"nodes=-1",
		"nodes=2 ppn=2",
		"  nodes=2   ppn=2  ",
		"nodes=99999999999999999999",
		// The keys only the world grammar carries.
		"nodes=4 ppn=2 hcas=2 layout=cyclic nodehcas=2/1/2/1 railbw=1/0.5",
		"nodes=4 ppn=2 hcas=2 fabric=dfly:groups=2,routers=2,nodes=1,global=2",
		"nodes=2 ppn=2 fabric=ft:arity=2,levels=2,over=2:1",
		"nodes=2 ppn=2 fabric=flat",
		"nodes=2 ppn=2 railbw=NaN/1",
		"nodes=2 ppn=2 nodes=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if h, err := compose.ParseHierarchy(line); err == nil {
			again, err := compose.ParseHierarchy(h.String())
			if err != nil {
				t.Fatalf("hierarchy %q of %q does not reparse: %v", h.String(), line, err)
			}
			if !again.Topo.Equal(h.Topo) || again.String() != h.String() {
				t.Fatalf("hierarchy round trip drifted: %q -> %q", h.String(), again.String())
			}
		}
		s, err := world.Parse(line)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse accepted %q, which Validate rejects: %v", line, verr)
		}
		canon := s.String()
		again, err := world.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, line, err)
		}
		if again.String() != canon || !again.Cluster().Equal(s.Cluster()) || again.Fabric != s.Fabric {
			t.Fatalf("String/Parse not a fixed point: %q -> %q", canon, again.String())
		}
		if s.Fabric != "" {
			return // a hierarchy takes no fabric
		}
		h, err := compose.ParseHierarchy("world " + canon)
		if err != nil {
			t.Fatalf("hierarchy form of %q does not parse: %v", canon, err)
		}
		if !h.Topo.Equal(s.Cluster()) || strings.TrimPrefix(h.String(), "world ") != canon {
			t.Fatalf("hierarchy form drifted: %q -> %q", canon, h.String())
		}
	})
}
