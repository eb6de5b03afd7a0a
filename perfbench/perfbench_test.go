package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"mha/internal/mpi"
	"mha/internal/verify"
)

// TestMain lets the test binary act as the set-up probe that untraced
// smoke runs start, at the smoke runs' minimal size.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		os.Exit(probe(os.Args[2:], true))
	}
	os.Exit(m.Run())
}

// metricEntry is one metric of ../BENCHMARK.json.
type metricEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smoke runs one minimal-size workload and returns its parsed result and
// the full output.
func smoke(t *testing.T, workload string, trace int) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, smoke: true}
	if _, err := run(o, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return &res, out.String()
}

// TestSmokePrintsEveryMetric runs every workload at minimal size, untraced
// and traced, and checks that each metric BENCHMARK.json names is printed
// with its unit and that the run is correct.
func TestSmokePrintsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, the benchmark implements %s", names, workloadNames())
	}
	for _, w := range names {
		for trace, want := range [][]metricEntry{bf.EndToEnd, bf.PerLayer} {
			res, out := smoke(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: printed %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s printed as %+v (present %v), want unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPerLayerTableMatchesBenchmarkFile keeps BENCHMARK.json's per_layer
// list and the benchmark's own table the same set.
func TestPerLayerTableMatchesBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	file := map[string]string{}
	for _, m := range bf.PerLayer {
		file[m.Name] = m.Unit
	}
	code := map[string]string{}
	for _, d := range perLayerMetrics {
		code[d.name] = d.unit
	}
	if !reflect.DeepEqual(file, code) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerMetrics:\nfile %v\ncode %v", file, code)
	}
}

// TestSameSeedSameOps checks that each workload's inputs are a pure
// function of the seed, and that another seed changes them.
func TestSameSeedSameOps(t *testing.T) {
	itemNames := func(items []item) []string {
		var out []string
		for _, it := range items {
			out = append(out, it.name)
		}
		return out
	}
	sweepNames := func(seed int64) []string {
		items, err := sweepMenu(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		return itemNames(items)
	}
	irNames := func(seed int64) []string {
		var out []string
		for _, p := range irPoints(seed, false) {
			out = append(out, p.String())
		}
		return out
	}
	tunerBodies := func(seed int64) []string {
		keys, _, streams, err := tunerStreams(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range streams {
			for _, op := range s[:5000] {
				out = append(out, string(keys[op.key].body))
			}
		}
		return out
	}
	certNames := func(seed int64) []string {
		e := &certify{small: true}
		if err := e.setup(seed); err != nil {
			t.Fatal(err)
		}
		return itemNames(e.items)
	}
	for name, gen := range map[string]func(int64) []string{
		"paper-sweep": sweepNames, "ir-pricing": irNames,
		"tuner-serve": tunerBodies, "explore-certify": certNames,
	} {
		a, b := gen(11), gen(11)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 gave two different op sequences", name)
		}
		differs := false
		for seed := int64(12); seed < 20 && !differs; seed++ {
			differs = !reflect.DeepEqual(a, gen(seed))
		}
		if !differs {
			t.Errorf("%s: seeds 12..19 all gave seed 11's op sequence", name)
		}
	}
}

// TestBrokenVariantCounted registers a ring allgather that drops its
// neighbours' blocks under the name the paper-sweep gate checks, and
// expects the run to count the failure and report itself incorrect.
func TestBrokenVariantCounted(t *testing.T) {
	orig, ok := verify.ByName("ring")
	if !ok {
		t.Fatal("ring is not registered")
	}
	broken := orig
	broken.Run = func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		recv.Slice(p.Rank()*send.Len(), send.Len()).CopyFrom(send)
	}
	verify.Register(broken)
	defer verify.Register(orig)
	res, out := smoke(t, "paper-sweep", 0)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("broken ring not counted: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	if !strings.Contains(out, "alg=ring") {
		t.Errorf("failure does not name the broken variant:\n%s", out)
	}
}

// TestQuantileIgnoresRoundCount pins why op latencies use nearest-rank
// quantiles: over whole rounds, p50 and the tail percentile land on the
// same menu item whatever the number of rounds. The menus are
// paper-sweep's (19 items once, p90) and ir-pricing's (11 small items
// three times and 8 large ones once, p90), with item i taking i ms.
func TestQuantileIgnoresRoundCount(t *testing.T) {
	for _, m := range []struct {
		name              string
		copies            []int
		tail              float64
		wantP50, wantTail float64
	}{
		{"paper-sweep", repeatInts(1, 19), 0.9, 10, 18},
		{"ir-pricing", append(repeatInts(irSmallCopies, 11), repeatInts(1, 8)...), 0.9, 7, 15},
	} {
		for rounds := 1; rounds <= 12; rounds++ {
			var xs []float64
			for r := 0; r < rounds; r++ {
				for item, n := range m.copies {
					for k := 0; k < n; k++ {
						xs = append(xs, float64(item+1))
					}
				}
			}
			if p50, tail := median(xs), quantile(xs, m.tail); p50 != m.wantP50 || tail != m.wantTail {
				t.Errorf("%s, %d rounds: p50=%v tail=%v, want items %v and %v", m.name, rounds, p50, tail, m.wantP50, m.wantTail)
			}
		}
	}
}

func repeatInts(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mpi.New", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "mpi.Run", Start: 20, End: 90},
	}
	self, ops := selfTimes(spans)
	if ops != 1 || self["op"] != 20 || self["mpi"] != 80 {
		t.Errorf("self=%v ops=%d, want op 20ns, mpi 80ns, 1 op", self, ops)
	}
}
