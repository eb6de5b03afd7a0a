// Command perfbench is the repository benchmark: one single-process run
// of one workload that drives the simulator's public layers (sim, mpi,
// collectives/core, sched, compose, tuner, explore) from outside, checks
// every output against verify's oracle, and prints its metrics by name
// with their units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics and the tracing overhead. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mha/internal/topology"
)

// setupProbes is how many cold set-ups an untraced run times for
// setup_s. Each runs in a child process of its own, started before the
// run's own set-up, so every sample counts from process start.
const setupProbes = 3

// probeArg, as the first argument, makes the binary a set-up probe: it
// sets the workload up, prints probeReady and exits.
const (
	probeArg   = "-setup-probe"
	probeReady = "ready"
)

// minShape caps a machine shape at 2 nodes x 4 ranks in smoke mode and
// returns it unchanged otherwise.
func minShape(small bool, nodes, ppn, hcas int) topology.Cluster {
	if small {
		nodes, ppn = min(nodes, 2), min(ppn, 4)
	}
	return topology.New(nodes, ppn, hcas)
}

// A workload is one seeded input set plus the code that times it.
type workload interface {
	// setup generates the op sequence from the seed and performs the
	// untimed warm-up (one op per kind).
	setup(seed int64) error
	// measure runs the timed phase for about d. In traced mode it
	// alternates traced and untraced ops and records spans.
	measure(d time.Duration, traced bool) (*phase, error)
	// check is the correctness gate that runs after the timed phase.
	check(ph *phase)
}

// A phase is what one timed phase produced.
type phase struct {
	// lat holds the latency (ms) of every untraced op; latTraced of the
	// traced ones.
	lat, latTraced []float64
	// wall and wallTraced are the host time spent in those ops.
	wall, wallTraced time.Duration
	// rates are the ops/s of the phase's untraced windows (whole rounds,
	// or fixed time slices); ops_per_s is their median.
	rates []float64
	// rss is each untraced window's largest sampled resident set size
	// (MB); peak_rss_mb is their median, so one late garbage collection
	// cannot set it.
	rss []float64
	// tailPct is the workload's op_tail_ms percentile.
	tailPct float64
	// attempted/failed count ops and gate checks; a failure is any wrong
	// output, error or non-reproducible modeled time.
	attempted, failed int
	// modeled is the virtual makespan (µs) of every distinct simulated
	// item the workload's geometric mean is taken over.
	modeled []float64
	// layer holds the per-layer metrics the workload computed; spans are
	// the trace.
	layer map[string]float64
	spans []span
	// notes are human-readable lines printed before the result.
	notes []string
	// problems explains each failure.
	problems []string
}

func (ph *phase) fail(format string, args ...interface{}) {
	ph.failed++
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

func (ph *phase) note(format string, args ...interface{}) {
	ph.notes = append(ph.notes, fmt.Sprintf(format, args...))
}

// workloads maps every workload name to its constructor; small selects
// the minimal-size inputs of the self-tests.
var workloads = map[string]func(small bool) workload{
	"paper-sweep":     func(small bool) workload { return &sweep{small: small} },
	"ir-pricing":      func(small bool) workload { return &irPricing{small: small} },
	"tuner-serve":     func(small bool) workload { return &tunerServe{small: small} },
	"explore-certify": func(small bool) workload { return &certify{small: small} },
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
	// smoke shrinks every input to minimal size and times one set-up
	// probe; the self-tests set it.
	smoke bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		os.Exit(probe(os.Args[2:], false))
	}
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the op sequence is a pure function of it")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed phase")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to (empty = none)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// probe is a set-up probe's main: it sets up the workload args name at
// the seed they give, prints probeReady and returns the exit status.
func probe(args []string, small bool) int {
	fs := flag.NewFlagSet("perfbench "+probeArg, flag.ContinueOnError)
	name := fs.String("workload", "", "workload to set up")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := mk(small).setup(*seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up probe: %v\n", *name, err)
		return 1
	}
	fmt.Println(probeReady)
	return 0
}

// probeSetups times n cold set-ups of workload at seed, one child process
// after another. A sample runs from starting the child to its ready line,
// so it covers process start, package initialisation and the set-up.
func probeSetups(n int, workload string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, probeArg, "-workload", workload, "-seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		el := time.Since(t0).Seconds()
		if _, err := io.Copy(io.Discard, stdout); err != nil && readErr == nil {
			readErr = err
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || strings.TrimSpace(line) != probeReady {
			return nil, fmt.Errorf("set-up probe printed %q (%v), want %q", line, readErr, probeReady)
		}
		secs = append(secs, el)
	}
	return secs, nil
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and prints its report to out, ending
// with the JSON result line.
func run(o options, out io.Writer) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	traced := o.trace == 1
	// setup_s is end-to-end only, so traced runs take no probes.
	var setups []float64
	if !traced {
		n := setupProbes
		if o.smoke {
			n = 1
		}
		var err error
		if setups, err = probeSetups(n, o.workload, o.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
	}
	w := mk(o.smoke)
	if err := w.setup(o.seed); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	ph, err := w.measure(time.Duration(o.seconds)*time.Second, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	checkStart := time.Now()
	w.check(ph)
	checkMS := msSince(checkStart)

	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range ph.notes {
		fmt.Fprintln(out, "  "+n)
	}
	for _, p := range ph.problems {
		fmt.Fprintln(out, "  FAIL "+p)
	}
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "  failed_frac = %.6f (%d of %d ops and gate checks)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if traced {
		layer := perLayer(ph, checkMS)
		for _, d := range perLayerMetrics {
			res.Metrics[d.name] = metric{layer[d.name], d.unit}
		}
		if o.spans != "" {
			if err := writeSpans(filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)), ph.spans); err != nil {
				return nil, err
			}
		}
	} else {
		for name, m := range endToEnd(ph, setups, out) {
			res.Metrics[name] = m
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(out, "  %-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// endToEnd computes the untraced run's metrics.
func endToEnd(ph *phase, setups []float64, out io.Writer) map[string]metric {
	n := len(ph.lat)
	beyond := n - int(math.Ceil(ph.tailPct/100*float64(n)))
	fmt.Fprintf(out, "  ops=%d op_p50_ms over %d samples; op_tail_ms = p%g with %d samples beyond it\n",
		n, n, ph.tailPct, beyond)
	fmt.Fprintf(out, "  ops_per_s = median of %d windows %v\n", len(ph.rates), roundAll(ph.rates))
	fmt.Fprintf(out, "  setup_s samples %v from as many cold processes (median reported)\n", roundAll(setups))
	fmt.Fprintf(out, "  peak_rss_mb over %d windows %v; process VmHWM %.1f MB\n", len(ph.rss), roundAll(ph.rss), peakRSSMB())
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"ops_per_s":          {median(ph.rates), "1/s"},
		"op_p50_ms":          {median(ph.lat), "ms"},
		"op_tail_ms":         {quantile(ph.lat, ph.tailPct/100), "ms"},
		"modeled_us_geomean": {geomean(ph.modeled), "us_virtual"},
		"peak_rss_mb":        {median(ph.rss), "MB"},
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
