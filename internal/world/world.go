// Package world is the one grammar for the machine shape: N nodes of L
// ranks with H rails each (the paper's N, L and H), plus the rank
// layout, NUMA sockets, inter-node fabric and heterogeneous rails:
//
//	nodes=4 ppn=2 hcas=2 layout=cyclic fabric=ft:arity=2,levels=2,over=2 nodehcas=2/1/2/1 railbw=1/0.5
//
// The verify and explore repro specs embed it through Spec.Set, a
// compose hierarchy is "world " followed by a world line, and every CLI
// binds its shape flags with Spec.BindFlags (DESIGN.md §16).
package world

import (
	"fmt"
	"strconv"
	"strings"

	"mha/internal/fabric"
	"mha/internal/topology"
)

// Keys lists the world keys in canonical render order.
var Keys = []string{"nodes", "ppn", "hcas", "layout", "sockets", "fabric", "nodehcas", "railbw"}

// Spec is a machine shape: a topology.Cluster without custom placement,
// plus the inter-node fabric.
type Spec struct {
	Nodes, PPN, HCAs int             // the paper's N, L and H
	Layout           topology.Layout // block or cyclic
	Sockets          int             // NUMA domains per node; 0 is flat memory
	Fabric           string          // canonical internal/fabric spec; "" is flat
	NodeHCAs         []int           // per-node rail counts; empty is homogeneous
	RailBW           []float64       // per-rail bandwidth scales; empty is nominal
}

// Parse reads a world line. Every key may appear at most once; nodes=
// and ppn= are required (their zero default fails validation), and the
// rest default to one rail, block layout, flat memory, the flat fabric
// and homogeneous rails. The result is validated, and String renders it
// back to a line Parse reads as the same Spec.
func Parse(line string) (Spec, error) {
	fields, err := Tokenize(strings.Fields(line), Keys...)
	if err != nil {
		return Spec{}, fmt.Errorf("world: %v", err)
	}
	s := Spec{HCAs: 1}
	for _, f := range fields {
		if _, err := s.Set(f.Key, f.Val); err != nil {
			return Spec{}, fmt.Errorf("world: %v", err)
		}
	}
	return s, s.Validate()
}

// Set parses one key's value into s, leaving s unchanged on error. known
// reports whether key is a world key, so a larger grammar hands every
// field to Set first and handles only the keys Set does not know. An
// empty value (from a flag or JSON; Tokenize never passes one) resets
// fabric to flat and nodehcas/railbw to homogeneous.
func (s *Spec) Set(key, val string) (known bool, err error) {
	t := *s
	switch key {
	case "nodes", "ppn", "hcas", "sockets":
		*t.intField(key), err = atoi(key, val)
	case "layout":
		t.Layout, err = ParseLayout(val)
	case "fabric":
		t.Fabric, _, err = canonFabric(val)
	case "nodehcas":
		t.NodeHCAs, err = parseList(key, val, strconv.Atoi)
	case "railbw":
		t.RailBW, err = parseList(key, val, func(p string) (float64, error) { return strconv.ParseFloat(p, 64) })
	default:
		return false, nil
	}
	if err == nil {
		*s = t
	}
	return true, err
}

// intField points at the integer field behind key, or is nil.
func (s *Spec) intField(key string) *int {
	switch key {
	case "nodes":
		return &s.Nodes
	case "ppn":
		return &s.PPN
	case "hcas":
		return &s.HCAs
	case "sockets":
		return &s.Sockets
	}
	return nil
}

// parseList reads a '/'-separated list; the empty string is the empty list.
func parseList[T any](key, v string, parse func(string) (T, error)) ([]T, error) {
	if v == "" {
		return nil, nil
	}
	var out []T
	for _, p := range strings.Split(v, "/") {
		x, err := parse(p)
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q", key, p)
		}
		out = append(out, x)
	}
	return out, nil
}

// joinList renders a '/'-separated list, floats in their shortest form.
func joinList[T int | float64](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, "/")
}

// value renders key's value and reports whether String shows it: nodes,
// ppn, hcas and layout always, the others only away from their defaults.
func (s Spec) value(key string) (string, bool) {
	if p := s.intField(key); p != nil {
		return strconv.Itoa(*p), key != "sockets" || *p != 0
	}
	switch key {
	case "layout":
		return s.Layout.String(), true
	case "fabric":
		return s.Fabric, s.Fabric != ""
	case "nodehcas":
		return joinList(s.NodeHCAs), len(s.NodeHCAs) > 0
	case "railbw":
		return joinList(s.RailBW), len(s.RailBW) > 0
	}
	panic("world: unknown key " + key)
}

// String renders the canonical world line.
func (s Spec) String() string { return s.Format(Keys...) }

// Format renders the named keys in the order given, omitting optional
// keys at their defaults, for grammars that embed only some world keys.
func (s Spec) Format(keys ...string) string {
	var b strings.Builder
	for _, k := range keys {
		if v, show := s.value(k); show {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(k + "=" + v)
		}
	}
	return b.String()
}

// Cluster returns the shape as a topology.
func (s Spec) Cluster() topology.Cluster {
	return topology.Cluster{Nodes: s.Nodes, PPN: s.PPN, HCAs: s.HCAs, Layout: s.Layout,
		Sockets: s.Sockets, NodeHCAs: s.NodeHCAs, RailBW: s.RailBW}
}

// FabricSpec parses the fabric field; nil means the flat fabric.
func (s Spec) FabricSpec() (*fabric.Spec, error) {
	_, fs, err := canonFabric(s.Fabric)
	return fs, err
}

// canonFabric reads a fabric spec into its canonical text and parsed
// form; the flat fabric ("" or "flat") is "" and nil.
func canonFabric(text string) (string, *fabric.Spec, error) {
	fs, err := fabric.ParseSpec(text)
	if err != nil || fs.Kind == fabric.Flat {
		return "", nil, err
	}
	p := new(fabric.Spec) // allocated only for a structured fabric
	*p = fs
	return fs.String(), p, nil
}

// Validate reports why the shape is unusable: a bad cluster, a bad
// fabric, or a fabric that does not fit the node count.
func (s Spec) Validate() error {
	if err := s.Cluster().Validate(); err != nil {
		return err
	}
	fs, err := fabric.ParseSpec(s.Fabric) // the flat fabric fits any node count
	if err != nil {
		return err
	}
	return fs.CheckNodes(s.Nodes)
}

// ParseLayout reads a rank layout name, block or cyclic; custom
// placements have no text form.
func ParseLayout(v string) (topology.Layout, error) {
	for _, l := range []topology.Layout{topology.Block, topology.Cyclic} {
		if v == l.String() {
			return l, nil
		}
	}
	return topology.Block, fmt.Errorf("unknown layout %q (want block or cyclic)", v)
}
