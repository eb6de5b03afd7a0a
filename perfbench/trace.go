package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A span is one timed call from the benchmark into a layer's public
// function. Spans of one op share Op; Parent is the enclosing span's ID
// (0 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot ("mpi.Run" ->
// "mpi"); the op root span "op" is the benchmark's own code.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// A tracer records spans in memory for one goroutine. A nil tracer, or
// one switched off, records nothing and costs one branch per call.
type tracer struct {
	epoch time.Time
	on    bool
	op    int64
	spans []span
	open  []int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its handle for end; -1 when off.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op,
		Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned and reports its duration.
func (t *tracer) end(h int) time.Duration {
	if h < 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.spans[h].End = now
	t.open = t.open[:len(t.open)-1]
	return time.Duration(now - t.spans[h].Start)
}

// mergeSpans concatenates several tracers' spans, renumbering IDs so
// they stay unique.
func mergeSpans(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		base := len(out)
		for _, s := range t.spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per layer, the summed span duration minus the time
// each span's children cover, and the number of op root spans. Spans are
// strictly nested per tracer, so a span's children cover exactly the sum
// of their durations.
func selfTimes(spans []span) (self map[string]time.Duration, ops int) {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self = map[string]time.Duration{}
	for _, s := range spans {
		self[s.layer()] += time.Duration(s.End - s.Start - child[s.ID])
		if s.Name == "op" {
			ops++
		}
	}
	return self, ops
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricDef names one per-layer metric and its unit.
type metricDef struct{ name, unit string }

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"op", "mpi", "sched", "compose", "tuner", "explore"}

// perLayerMetrics is every metric a traced run prints, on every
// workload; a layer a workload does not reach reports 0. BENCHMARK.json's
// per_layer list is checked against it by the tests.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_op", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.ns_per_event", "ns"},
		{"sim.allocs_per_event", "count"},
		{"sim.procs_per_op", "count"},
		{"mpi.world_new_ms", "ms"},
		{"mpi.run_ms", "ms"},
		{"mpi.rail_busy_frac", "ratio"},
	}
	for _, f := range sweepFamilies {
		defs = append(defs, metricDef{f + ".run_ms_p50", "ms"}, metricDef{f + ".modeled_us", "us_virtual"})
	}
	defs = append(defs,
		metricDef{"sched.build_ms", "ms"},
		metricDef{"sched.analyze_ms", "ms"},
		metricDef{"sched.simulate_ms", "ms"},
		metricDef{"sched.allocs_per_event", "count"},
		metricDef{"sched.ir_vs_core_modeled.8x32x2_8k", "ratio"},
		metricDef{"sched.ir_vs_core_modeled.8x32x2_256k", "ratio"},
		metricDef{"sched.analyze_vs_sim", "ratio"},
		metricDef{"compose.lower_ms", "ms"},
		metricDef{"tuner.hit_us_p50", "us"},
		metricDef{"tuner.http_self_us", "us"},
		metricDef{"tuner.miss_ms_p50", "ms"},
		metricDef{"tuner.synth_ms_p50", "ms"},
		metricDef{"tuner.hit_ratio", "ratio"},
		metricDef{"tuner.evictions", "count"},
		metricDef{"tuner.shared", "count"},
		metricDef{"tuner.warmstart_s", "s"},
		metricDef{"explore.executions_per_op", "count"},
		metricDef{"explore.steps_per_s", "1/s"},
		metricDef{"explore.redundant_frac", "ratio"},
		metricDef{"explore.space_reduction", "ratio"},
		metricDef{"verify.check_ms", "ms"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_ms_per_op", "ms"})
	}
	return append(defs, metricDef{"trace_overhead_frac", "ratio"})
}()

// perLayer assembles the traced run's metrics: the workload's own layer
// numbers, self time per layer from the spans, the gate's time, and the
// tracing overhead (untraced minus traced ops/s over untraced, from the
// alternating traced and untraced ops of the same run) unless the
// workload measured it itself.
func perLayer(ph *phase, checkMS float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayerMetrics {
		out[d.name] = 0
	}
	for k, v := range ph.layer {
		out[k] = v
	}
	self, ops := selfTimes(ph.spans)
	if ops > 0 {
		for _, l := range selfLayers {
			out[l+".self_ms_per_op"] = float64(self[l]) / 1e6 / float64(ops)
		}
	}
	out["verify.check_ms"] = checkMS
	if _, own := ph.layer["trace_overhead_frac"]; !own && ph.wall > 0 && ph.wallTraced > 0 && len(ph.lat) > 0 {
		u := float64(len(ph.lat)) / ph.wall.Seconds()
		t := float64(len(ph.latTraced)) / ph.wallTraced.Seconds()
		out["trace_overhead_frac"] = (u - t) / u
	}
	return out
}
