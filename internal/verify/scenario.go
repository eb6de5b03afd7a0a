package verify

import (
	"fmt"
	"strconv"
	"strings"

	"mha/internal/faults"
	"mha/internal/netmodel"
	"mha/internal/topology"
	"mha/internal/world"
)

// Scenario is one fully-specified verification run: a variant, a cluster,
// a payload, and the environment (jitter, faults, health-blindness). It
// round-trips through a one-line textual spec so a shrunk failure can be
// replayed with `mhaverify -repro`.
type Scenario struct {
	// Alg names a registered Algorithm.
	Alg string
	// The machine shape, field for field a world.Spec (see World), except
	// that Fabric may be in any spelling the fabric grammar accepts.
	Nodes, PPN, HCAs, Sockets int
	Layout                    topology.Layout
	Fabric                    string
	NodeHCAs                  []int
	RailBW                    []float64
	// Msg is the per-rank contribution in bytes (0 is legal).
	Msg int
	// Seed feeds the world's jitter RNG.
	Seed int64
	// Jitter is the OS/fabric noise amplitude (0 disables).
	Jitter float64
	// Blind runs the health-unaware transport baseline.
	Blind bool
	// Faults degrades the rails over the run; nil means healthy.
	Faults *faults.Schedule
}

// World returns the scenario's machine shape.
func (sc Scenario) World() world.Spec {
	return world.Spec{Nodes: sc.Nodes, PPN: sc.PPN, HCAs: sc.HCAs,
		Layout: sc.Layout, Sockets: sc.Sockets, Fabric: sc.Fabric,
		NodeHCAs: sc.NodeHCAs, RailBW: sc.RailBW}
}

// Topo returns the scenario's cluster.
func (sc Scenario) Topo() topology.Cluster { return sc.World().Cluster() }

// Params returns the scenario's cost model: the Thor calibration (NUMA
// variant when the cluster has socket structure) with the scenario's
// jitter.
func (sc Scenario) Params() *netmodel.Params {
	var prm netmodel.Params
	if sc.Sockets > 1 {
		prm = *netmodel.NumaThor()
	} else {
		prm = *netmodel.Thor()
	}
	prm.Jitter = sc.Jitter
	return &prm
}

// Validate reports why the scenario is not runnable, or nil.
func (sc Scenario) Validate() error {
	alg, ok := ByName(sc.Alg)
	if !ok {
		return fmt.Errorf("verify: unknown algorithm %q", sc.Alg)
	}
	if err := sc.World().Validate(); err != nil {
		return err
	}
	if topo := sc.Topo(); !alg.Supports(topo) {
		return fmt.Errorf("verify: %s does not support %v", sc.Alg, topo)
	}
	if sc.Msg < 0 {
		return fmt.Errorf("verify: negative message size %d", sc.Msg)
	}
	if sc.Jitter < 0 {
		return fmt.Errorf("verify: negative jitter %g", sc.Jitter)
	}
	if sc.Faults.Len() > 0 {
		if err := sc.Faults.Check(sc.Nodes, sc.HCAs); err != nil {
			return err
		}
	}
	return nil
}

// Spec renders the scenario as the one-line format ParseSpec reads: alg,
// the world keys (internal/world), then the run's own keys. The faults
// field is last and holds the schedule's own spec text with ';' joining
// lines, so the whole scenario stays a single shell-friendly line.
func (sc Scenario) Spec() string {
	blind := 0
	if sc.Blind {
		blind = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s %s msg=%d seed=%d jitter=%g blind=%d faults=",
		sc.Alg, sc.World(), sc.Msg, sc.Seed, sc.Jitter, blind)
	if sc.Faults.Len() > 0 {
		b.WriteString(strings.ReplaceAll(sc.Faults.String(), "\n", "; "))
	} else {
		b.WriteString("none")
	}
	return b.String()
}

// specKeys are the keys a scenario line may carry besides faults=.
var specKeys = append([]string{"alg", "msg", "seed", "jitter", "blind"}, world.Keys...)

// ParseSpec reads a line produced by Spec (the inverse, modulo
// whitespace and key order). Unknown keys are an error; every key except
// faults must appear at most once and has a sensible default (one node,
// one rank, one rail, block layout, empty message, healthy rails).
func ParseSpec(line string) (Scenario, error) {
	sc := Scenario{Seed: 1}
	w := world.Spec{Nodes: 1, PPN: 1, HCAs: 1}
	line = strings.TrimSpace(line)
	faultText := ""
	if i := strings.Index(line, "faults="); i >= 0 {
		faultText = strings.TrimSpace(line[i+len("faults="):])
		line = line[:i]
	}
	fields, err := world.Tokenize(strings.Fields(line), specKeys...)
	if err != nil {
		return sc, fmt.Errorf("verify: %v", err)
	}
	for _, f := range fields {
		known, err := w.Set(f.Key, f.Val)
		if !known {
			switch f.Key {
			case "alg":
				sc.Alg = f.Val
			case "msg":
				sc.Msg, err = strconv.Atoi(f.Val)
			case "seed":
				sc.Seed, err = strconv.ParseInt(f.Val, 10, 64)
			case "jitter":
				sc.Jitter, err = strconv.ParseFloat(f.Val, 64)
			case "blind":
				sc.Blind = f.Val == "1" || f.Val == "true"
				if !sc.Blind && f.Val != "0" && f.Val != "false" {
					err = fmt.Errorf("want 0, 1, true or false")
				}
			}
		}
		if err != nil {
			return sc, fmt.Errorf("verify: field %q: %v", f.Key+"="+f.Val, err)
		}
	}
	sc.Nodes, sc.PPN, sc.HCAs, sc.Layout = w.Nodes, w.PPN, w.HCAs, w.Layout
	sc.Sockets, sc.Fabric, sc.NodeHCAs, sc.RailBW = w.Sockets, w.Fabric, w.NodeHCAs, w.RailBW
	if faultText != "" && faultText != "none" && faultText != "(healthy)" {
		sched, err := faults.Parse(strings.ReplaceAll(faultText, ";", "\n"))
		if err != nil {
			return sc, err
		}
		sc.Faults = sched
	}
	if sc.Alg == "" {
		return sc, fmt.Errorf("verify: spec is missing alg=")
	}
	return sc, sc.Validate()
}
