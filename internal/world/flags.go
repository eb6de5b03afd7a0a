package world

import (
	"flag"

	"mha/internal/topology"
)

// usage is the help text of each key's flag.
var usage = map[string]string{
	"nodes":    "number of nodes (N)",
	"ppn":      "processes per node (L)",
	"hcas":     "HCA rails per node (H)",
	"layout":   "rank layout: block or cyclic",
	"sockets":  "NUMA sockets per node (0 = uniform)",
	"fabric":   "fabric spec: flat, ft:... or dfly:... (empty means flat)",
	"nodehcas": "per-node rail counts, '/'-separated (empty = every node has -hcas)",
	"railbw":   "per-rail bandwidth scales, '/'-separated (empty = nominal)",
}

// BindFlags registers one flag per named key on fs, each defaulting to
// s's current value, so a CLI states its defaults as a Spec literal and
// binds only the keys it has. Call the returned function after fs.Parse:
// it parses the text flags into s through Set, validates the whole
// shape, and returns it as a cluster.
func (s *Spec) BindFlags(fs *flag.FlagSet, keys ...string) func() (topology.Cluster, error) {
	text := map[string]*string{}
	for _, k := range keys {
		if p := s.intField(k); p != nil {
			fs.IntVar(p, k, *p, usage[k])
		} else {
			v, _ := s.value(k)
			text[k] = fs.String(k, v, usage[k])
		}
	}
	return func() (topology.Cluster, error) {
		for _, k := range keys {
			if v, ok := text[k]; ok {
				if _, err := s.Set(k, *v); err != nil {
					return topology.Cluster{}, err
				}
			}
		}
		return s.Cluster(), s.Validate()
	}
}
