package main

import (
	"math/rand"
	"runtime"
	"time"
)

// An item is one entry of a round-based workload's menu: one op kind at
// one fixed input. Every round runs each item copies times (once when
// copies is 0), in a seeded order, so every run times the same mix of ops
// whatever its seed.
type item struct {
	name string
	// family keys the item's per-layer numbers; kind groups items for
	// the warm-up, which runs the first item of every kind once.
	family, kind string
	copies       int
	// run performs the op and returns its deterministic result: the
	// modeled makespan in virtual µs for a simulated collective, the
	// step count for a certification. Every repeat must return the same
	// value.
	run func(c *opCtx) (float64, error)
}

// opCtx is what an item's run gets: the tracer (recording only on traced
// ops) and, on traced ops, the accumulator for per-layer numbers.
type opCtx struct {
	tr  *tracer
	acc *acc
}

// allocs returns the process's cumulative heap allocation count on
// traced ops and 0 otherwise; ReadMemStats stops the world, so untraced
// ops never pay for it.
func (c *opCtx) allocs() uint64 {
	if c.acc == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// acc accumulates per-layer numbers over traced ops.
type acc struct {
	sums    map[string]float64
	samples map[string][]float64
}

func newAcc() *acc {
	return &acc{sums: map[string]float64{}, samples: map[string][]float64{}}
}

// add sums v under k; a nil accumulator ignores it.
func (a *acc) add(k string, v float64) {
	if a != nil {
		a.sums[k] += v
	}
}

// sample records one observation of k; a nil accumulator ignores it.
func (a *acc) sample(k string, v float64) {
	if a != nil {
		a.samples[k] = append(a.samples[k], v)
	}
}

// ratio returns sums[num]/sums[den], 0 when den is 0.
func (a *acc) ratio(num, den string) float64 {
	if a.sums[den] == 0 {
		return 0
	}
	return a.sums[num] / a.sums[den]
}

// warmUp runs the first item of every kind once, untimed and untraced,
// each on a freshly collected heap like the timed ops.
func warmUp(items []item) error {
	seen := map[string]bool{}
	for _, it := range items {
		if seen[it.kind] {
			continue
		}
		seen[it.kind] = true
		runtime.GC()
		if _, err := it.run(&opCtx{}); err != nil {
			return err
		}
	}
	return nil
}

// runRounds is the timed phase of a round-based workload: whole rounds,
// each a seeded permutation of the menu's copies, until d has passed and at least
// one round (two when traced) has run. Each op starts on a freshly
// collected heap, so no op pays for garbage an earlier one left. Traced
// runs trace every second round, so traced and untraced ops interleave
// evenly. It returns the phase, with modeled holding every item's result
// and one rate and resident-set sample per untraced round, the per-layer
// accumulator of the traced rounds, and each item's result by index.
func runRounds(items []item, seed int64, d time.Duration, traced bool, tailPct float64) (*phase, *acc, []float64) {
	ph := &phase{tailPct: tailPct}
	ac := newAcc()
	tr := newTracer(time.Now())
	order := rand.New(rand.NewSource(seed))
	ref := make([]float64, len(items))
	seen := make([]bool, len(items))
	itemLat := make([][]float64, len(items))
	var menu []int
	for i, it := range items {
		for k := 0; k < max(it.copies, 1); k++ {
			menu = append(menu, i)
		}
	}
	minRounds := 1
	if traced {
		minRounds = 2
	}
	start := time.Now()
	var op int64
	rounds := 0
	for ; rounds < minRounds || time.Since(start) < d; rounds++ {
		tr.on = traced && rounds%2 == 1
		var roundTime time.Duration
		var roundRSS float64
		for _, j := range order.Perm(len(menu)) {
			i := menu[j]
			it := items[i]
			op++
			tr.op = op
			c := &opCtx{tr: tr}
			if tr.on {
				c.acc = ac
			}
			runtime.GC()
			t0 := time.Now()
			h := tr.begin("op")
			mod, err := it.run(c)
			tr.end(h)
			el := time.Since(t0)
			roundTime += el
			roundRSS = max(roundRSS, rssMB())
			ms := float64(el) / 1e6
			if tr.on {
				ph.latTraced = append(ph.latTraced, ms)
				ph.wallTraced += el
			} else {
				ph.lat = append(ph.lat, ms)
				ph.wall += el
				itemLat[i] = append(itemLat[i], ms)
			}
			ph.attempted++
			switch {
			case err != nil:
				ph.fail("%s: %v", it.name, err)
			case !seen[i]:
				ref[i], seen[i] = mod, true
			case mod != ref[i]:
				ph.fail("%s: modeled %.6f us differs from the first run's %.6f us", it.name, mod, ref[i])
			}
		}
		if !tr.on {
			ph.rates = append(ph.rates, float64(len(menu))/roundTime.Seconds())
			ph.rss = append(ph.rss, roundRSS)
		}
	}
	for i, ok := range seen {
		if ok && ref[i] > 0 {
			ph.modeled = append(ph.modeled, ref[i])
		}
	}
	ph.spans = tr.spans
	ph.note("%d rounds of %d ops (%d menu items) = %d ops (%d traced)", rounds, len(menu), len(items), op, len(ph.latTraced))
	for i, it := range items {
		ph.note("  %-52s p50 %10.3f ms", it.name, median(itemLat[i]))
	}
	return ph, ac, ref
}

// jitter returns m scaled up by 0, 1/32, 2/32 or 3/32, drawn from rng:
// the seeded variation of a menu item's message size.
func jitter(rng *rand.Rand, m int) int {
	return m + m*rng.Intn(4)/32
}
