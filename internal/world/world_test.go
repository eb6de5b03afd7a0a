package world_test

import (
	"flag"
	"io"
	"strings"
	"testing"

	"mha/internal/topology"
	"mha/internal/world"
)

func TestParseAndRender(t *testing.T) {
	s, err := world.Parse("railbw=1/0.5 nodes=4 nodehcas=2/1/2/1 ppn=2 hcas=2 layout=cyclic fabric=ft:arity=2,levels=2,over=2:1 sockets=2")
	if err != nil {
		t.Fatal(err)
	}
	want := topology.Cluster{Nodes: 4, PPN: 2, HCAs: 2, Layout: topology.Cyclic, Sockets: 2,
		NodeHCAs: []int{2, 1, 2, 1}, RailBW: []float64{1, 0.5}}
	if !s.Cluster().Equal(want) {
		t.Errorf("cluster %+v, want %+v", s.Cluster(), want)
	}
	const canon = "nodes=4 ppn=2 hcas=2 layout=cyclic sockets=2 fabric=ft:arity=2,levels=2,over=2 nodehcas=2/1/2/1 railbw=1/0.5"
	if got := s.String(); got != canon {
		t.Errorf("String() = %q, want %q", got, canon)
	}
	if got := s.Format("ppn", "nodes", "sockets", "railbw"); got != "ppn=2 nodes=4 sockets=2 railbw=1/0.5" {
		t.Errorf("Format subset = %q", got)
	}
	// Defaults: one rail, block, flat memory, flat fabric, homogeneous rails.
	d, err := world.Parse("nodes=2 ppn=3 fabric=flat")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "nodes=2 ppn=3 hcas=1 layout=block" {
		t.Errorf("defaults render as %q", got)
	}
	if fs, err := d.FabricSpec(); fs != nil || err != nil {
		t.Errorf("flat fabric spec = %v, %v; want nil", fs, err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"nodes=2", "PPN"},
		{"ppn=2", "Nodes"},
		{"nodes=2 ppn=2 nodes=3", "duplicate key"},
		{"nodes=2 ppn=2 rails=2", "unknown key"},
		{"nodes=2 ppn=2 hcas", "malformed field"},
		{"nodes=2 ppn=2 hcas=", "malformed field"},
		{"nodes=2 ppn=2 =2", "malformed field"},
		{"nodes=x ppn=2", "bad nodes value"},
		{"nodes=2 ppn=2 layout=custom", "unknown layout"},
		{"nodes=2 ppn=2 railbw=a/1", "bad railbw value"},
		{"nodes=2 ppn=2 hcas=2 railbw=1", "RailBW"},
		{"nodes=3 ppn=2 nodehcas=1/1", "NodeHCAs"},
		{"nodes=0 ppn=2", "Nodes"},
		{"nodes=6 ppn=1 fabric=dfly:groups=2,routers=2,nodes=2", "dragonfly"},
		{"nodes=2 ppn=2 fabric=torus", "fabric"},
	} {
		if _, err := world.Parse(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want an error mentioning %q", c.in, err, c.want)
		}
	}
}

func TestSetLeavesUnknownKeysToTheCaller(t *testing.T) {
	s := world.Spec{Nodes: 1, PPN: 1, HCAs: 1}
	if known, err := s.Set("alg", "ring"); known || err != nil {
		t.Errorf("Set(alg) = %v, %v; want unknown", known, err)
	}
	if known, err := s.Set("hcas", "two"); !known || err == nil || s.HCAs != 1 {
		t.Errorf("Set(hcas=two) = %v, %v with HCAs %d; want a known-key error leaving s alone", known, err, s.HCAs)
	}
	if _, err := s.Set("fabric", "ft:arity=4,over=3:2"); err != nil || s.Fabric != "ft:arity=4,levels=2,over=1.5" {
		t.Errorf("fabric canonicalized to %q (%v)", s.Fabric, err)
	}
	if _, err := s.Set("fabric", "flat"); err != nil || s.Fabric != "" {
		t.Errorf("flat fabric stored as %q (%v)", s.Fabric, err)
	}
}

func TestTokenize(t *testing.T) {
	fs, err := world.Tokenize(strings.Fields("b=2 a=x"), "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if fs[0] != (world.Field{Key: "b", Val: "2"}) || fs.Str("a", "") != "x" || fs.Str("c", "def") != "def" {
		t.Errorf("fields %v", fs)
	}
	var err2 error
	if n := fs.Int("b", 0, &err2); n != 2 || err2 != nil {
		t.Errorf("Int(b) = %d, %v", n, err2)
	}
	fs.Int("a", 0, &err2)
	fs.Int("b", 0, &err2)
	fs.Int("c", 0, &err2)
	if err2 == nil || !strings.Contains(err2.Error(), `bad a value "x"`) {
		t.Errorf("Int(a) error %v, want the first bad field kept", err2)
	}
}

func TestBindFlags(t *testing.T) {
	s := world.Spec{Nodes: 8, PPN: 2, HCAs: 2, Fabric: "ft:arity=2,levels=2,over=2"}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parse := s.BindFlags(fs, "nodes", "ppn", "layout", "fabric")
	if fs.Lookup("hcas") != nil {
		t.Error("bound a key that was not asked for")
	}
	for key, def := range map[string]string{"nodes": "8", "ppn": "2", "layout": "block", "fabric": "ft:arity=2,levels=2,over=2"} {
		if f := fs.Lookup(key); f == nil || f.DefValue != def {
			t.Errorf("-%s default %v, want %q", key, f, def)
		}
	}
	if err := fs.Parse([]string{"-nodes", "4", "-layout", "cyclic", "-fabric", "flat"}); err != nil {
		t.Fatal(err)
	}
	topo, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "nodes=4 ppn=2 hcas=2 layout=cyclic" || !topo.Equal(s.Cluster()) {
		t.Errorf("bound spec %q, cluster %v", got, topo)
	}

	bad := world.Spec{Nodes: 2, PPN: 2, HCAs: 2}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	parse = bad.BindFlags(fs, "nodes", "ppn")
	if err := fs.Parse([]string{"-ppn", "0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := parse(); err == nil {
		t.Error("a zero -ppn passed validation")
	}
}
