package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/tuner"
)

// tuner-serve parameters. The stream's key space (hot keys plus every
// tail key) is larger than the cache, so the LRU evicts.
const (
	tunerClients  = 2
	tunerCapacity = 64
	// tunerNewEvery spaces the first-seen keys: the last op of every
	// tunerNewEvery of a client's ops asks for one (2%).
	tunerNewEvery = 50
	// tunerZipfS skews the repeat queries toward the most popular keys.
	tunerZipfS = 1.1
	// tunerRecent is how many of a client's latest first-seen keys stay
	// in its repeat queries.
	tunerRecent = 16
	// tunerStreamLen is each client's pre-generated op count; a client
	// that exhausts it starts over (all hits by then). The two streams'
	// first-seen keys fit in the key space.
	tunerStreamLen = 60000
	// tunerWindow is the time slice peak_rss_mb is sampled over.
	tunerWindow = time.Second
	// tunerTailPct is op_tail_ms's percentile. It lands inside the
	// largest tail shape's misses, which are one op in
	// len(tailShapes)*tunerNewEvery.
	tunerTailPct = 99.9
	// tunerRSSEvery is how often each client samples the resident set
	// between its ops; a client waiting on a miss samples after it.
	tunerRSSEvery = 20 * time.Millisecond
)

// tailShapes are the (nodes, ppn) shapes of first-seen keys: dual-rail
// machines of 8 to 128 ranks. On a 2-core x86-64 host their cold
// synthesis takes 20 to 50 ms at 8x4 and 2x16, about 0.45 s at 8x16 and
// 0.75 s at 4x32.
var tailShapes = [][2]int{
	{2, 4}, {2, 8}, {2, 16}, {3, 4}, {3, 8}, {4, 4}, {4, 8}, {5, 4}, {6, 4}, {7, 4}, {8, 4},
	{8, 16}, {4, 32},
}

// tailMsgs are the first-seen keys' per-rank sizes: 1 KB to 1 MB in
// quarter-octave steps.
var tailMsgs = func() []int {
	var ms []int
	for m := 1 << 10; m < 1<<20; m *= 2 {
		ms = append(ms, m, m+m/4, m+m/2, m+3*m/4)
	}
	return append(ms, 1<<20)
}()

// tailHealth are the rail-health vectors keys draw from: healthy and
// five degraded dual-rail states.
var tailHealth = [][]float64{nil, {1, 0.5}, {0.75, 1}, {1, 0.25}, {0.5, 1}, {1, 0.75}}

// hotExtras are the hot keys beyond the warm-start table; the seed
// nudges their message sizes.
var hotExtras = []tuner.Query{
	{Nodes: 2, PPN: 32, HCAs: 2, Msg: 8 << 10},
	{Nodes: 2, PPN: 16, HCAs: 2, Msg: 8 << 10},
	{Nodes: 4, PPN: 4, HCAs: 2, Msg: 256 << 10},
	{Nodes: 2, PPN: 8, HCAs: 2, Msg: 64 << 10},
	{Nodes: 4, PPN: 8, HCAs: 2, Msg: 64 << 10, Health: []float64{1, 0.5}},
	{Nodes: 8, PPN: 4, HCAs: 2, Msg: 16 << 10},
	{Nodes: 3, PPN: 8, HCAs: 2, Msg: 1 << 20},
}

// tunerKey is one distinct query and its request body.
type tunerKey struct {
	q    tuner.Query
	body []byte
}

// tunerOp is one pre-generated request: an index into the key table.
type tunerOp struct {
	key int32
	// first marks a key no earlier op of either client asked for.
	first bool
}

// tunerStreams generates the key table and each client's op stream from
// the seed. The table starts with the hot keys (nHot of them) and grows by
// one entry per first-seen key. Every tunerNewEvery-th op of a client asks
// for a first-seen key. These come in blocks that visit every tail shape
// once, in seeded order, so every run pays the same cold-synthesis mix.
// Repeat queries draw a Zipf rank over the hot keys followed by the
// client's tunerRecent latest first-seen keys, newest first. That working
// set fits the cache, so repeats hit and the miss rate stays at
// 1/tunerNewEvery however long the run; the first-seen keys outgrow the
// cache, so the LRU evicts the ones no longer asked for.
func tunerStreams(seed int64, small bool) (keys []tunerKey, nHot int, streams [tunerClients][]tunerOp, err error) {
	rng := rand.New(rand.NewSource(seed))
	// fits keeps every shape in normal mode and at most 16 ranks in
	// smoke mode.
	fits := func(nodes, ppn int) bool { return !small || nodes*ppn <= 16 }
	addKey := func(q tuner.Query) (int32, error) {
		body, err := json.Marshal(q)
		keys = append(keys, tunerKey{q, body})
		return int32(len(keys) - 1), err
	}
	hot := tuner.PaperQueries()
	for _, q := range hotExtras {
		q.Msg = jitter(rng, q.Msg)
		if fits(q.Nodes, q.PPN) {
			hot = append(hot, q)
		}
	}
	used := map[string]bool{}
	for _, q := range hot {
		used[q.String()] = true
		if _, err := addKey(q); err != nil {
			return nil, 0, streams, err
		}
	}
	nHot = len(keys)
	// Each tail shape's (message, health) combinations in seeded order;
	// a block of first-seen keys takes the next one of every shape.
	var combos [][]tuner.Query
	for _, sh := range tailShapes {
		if !fits(sh[0], sh[1]) {
			continue
		}
		var qs []tuner.Query
		for _, m := range tailMsgs {
			for _, h := range tailHealth {
				q := tuner.Query{Nodes: sh[0], PPN: sh[1], HCAs: 2, Msg: m, Health: h}
				if !used[q.String()] {
					qs = append(qs, q)
				}
			}
		}
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		combos = append(combos, qs)
	}
	var fresh []tuner.Query
	// nextFresh returns the next first-seen key; false once the key space
	// is used up.
	nextFresh := func() (tuner.Query, bool) {
		if len(fresh) == 0 {
			for _, i := range rng.Perm(len(combos)) {
				if len(combos[i]) > 0 {
					fresh = append(fresh, combos[i][0])
					combos[i] = combos[i][1:]
				}
			}
			if len(fresh) == 0 {
				return tuner.Query{}, false
			}
		}
		q := fresh[0]
		fresh = fresh[1:]
		return q, true
	}
	var zipf [tunerClients]*rand.Zipf
	var recent [tunerClients][]int32
	for c := range streams {
		zipf[c] = rand.NewZipf(rng, tunerZipfS, 1, uint64(nHot+tunerRecent-1))
	}
	// Interleave the clients' generation so first-seen keys alternate.
	for j := 0; j < tunerStreamLen; j++ {
		for c := range streams {
			var op tunerOp
			if j%tunerNewEvery == tunerNewEvery-1 {
				if q, ok := nextFresh(); ok {
					if op.key, err = addKey(q); err != nil {
						return nil, 0, streams, err
					}
					op.first = true
				}
			}
			switch r := int(zipf[c].Uint64()); {
			case op.first:
				recent[c] = append([]int32{op.key}, recent[c][:min(len(recent[c]), tunerRecent-1)]...)
			case r < nHot || len(recent[c]) == 0:
				op.key = int32(r % nHot)
			default:
				op.key = recent[c][(r-nHot)%len(recent[c])]
			}
			streams[c] = append(streams[c], op)
		}
	}
	return keys, nHot, streams, nil
}

// tunerServe is the tuner-serve workload: tuner.Handler served on
// loopback, two closed-loop clients with one keep-alive connection each.
type tunerServe struct {
	small   bool
	keys    []tunerKey
	nHot    int
	streams [tunerClients][]tunerOp
	svc     *tuner.Service
	srv     *http.Server
	served  chan error
	url     string
	clients [tunerClients]*http.Client
	// bodies maps each key to the hash of its first response.
	bodies     [tunerClients]map[int32][32]byte
	hotCost    []float64
	warmstartS float64
}

func (t *tunerServe) setup(seed int64) error {
	var err error
	if t.keys, t.nHot, t.streams, err = tunerStreams(seed, t.small); err != nil {
		return err
	}
	t.svc = tuner.New(tuner.Config{Capacity: tunerCapacity})
	t0 := time.Now()
	if _, err := tuner.WarmStart(t.svc); err != nil {
		return err
	}
	t.warmstartS = time.Since(t0).Seconds()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.url = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: tuner.Handler(t.svc), ReadHeaderTimeout: 30 * time.Second}
	t.served = make(chan error, 1)
	go func() { t.served <- t.srv.Serve(ln) }()
	for c := range t.clients {
		t.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
		t.bodies[c] = map[int32][32]byte{}
	}
	// Warm-up: every hot key once over HTTP (the extras are misses, the
	// warm-start keys hits); their decisions give modeled_us_geomean.
	t.hotCost = nil
	var buf bytes.Buffer
	for i, k := range t.keys[:t.nHot] {
		resp, _, err := t.post(t.clients[0], k.body, &buf)
		if err != nil {
			return fmt.Errorf("warm-up %v: %w", k.q, err)
		}
		var dec tuner.Decision
		if err := json.Unmarshal(resp, &dec); err != nil {
			return fmt.Errorf("warm-up %v: %w", k.q, err)
		}
		t.bodies[0][int32(i)] = sha256.Sum256(resp)
		t.hotCost = append(t.hotCost, dec.CostUS)
	}
	return nil
}

// post sends one decision request and returns the response body, read
// into buf and valid until buf's next use, and whether the service
// answered from its cache; any non-200 status is an error. Reusing buf
// keeps the client's garbage out of the server's measurements: some
// decisions are 0.7 MB.
func (t *tunerServe) post(cl *http.Client, body []byte, buf *bytes.Buffer) ([]byte, bool, error) {
	resp, err := cl.Post(t.url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), resp.Header.Get("X-Mhatuned-Cache") == "hit", nil
}

// stop stops the server and waits until it has returned. Serve's
// error is not checked: a server that failed early fails the clients'
// requests, and those are counted.
func (t *tunerServe) stop() {
	for _, cl := range t.clients {
		if cl != nil {
			cl.CloseIdleConnections()
		}
	}
	if t.srv != nil {
		t.srv.Close()
		<-t.served
		t.srv = nil
	}
}

// clientResult is what one client's timed loop produced.
type clientResult struct {
	lat, latTraced   []float64
	wall, wallTraced time.Duration
	// hitMS, hitMSTraced and missMS are the untraced hits', traced hits'
	// and all misses' latencies; cold are the misses' keys.
	hitMS, hitMSTraced, missMS []float64
	decideUS                   []float64
	cold                       []tuner.Query
	ops, firstSeen             int
	problems                   []string
	tr                         *tracer
	// done holds each op's completion time since the phase began.
	done []time.Duration
	// rss holds the client's resident-set samples (MB) and their times.
	rss   []float64
	rssAt []time.Duration
}

// loop runs client c closed-loop until the deadline. In traced mode odd
// ops are traced; after a traced hit it also times the same decision
// in-process through Service.Decide (outside the op's latency). The
// first-seen keys fall on odd ops, so a traced run traces every miss.
func (t *tunerServe) loop(c int, deadline time.Time, traced bool, epoch time.Time) *clientResult {
	r := &clientResult{tr: newTracer(epoch)}
	cl := t.clients[c]
	var buf bytes.Buffer
	for j := 0; time.Now().Before(deadline); j++ {
		op := t.streams[c][j%len(t.streams[c])]
		k := t.keys[op.key]
		r.tr.on = traced && j%2 == 1
		r.tr.op = int64(c)<<32 | int64(j)
		// A traced op's latency includes its spans' cost.
		t0 := time.Now()
		h := r.tr.begin("op")
		hh := r.tr.begin("tuner.http")
		resp, hit, err := t.post(cl, k.body, &buf)
		r.tr.end(hh)
		r.tr.end(h)
		el := time.Since(t0)
		r.ops++
		r.done = append(r.done, time.Since(epoch))
		if at := r.done[len(r.done)-1]; len(r.rssAt) == 0 || at-r.rssAt[len(r.rssAt)-1] >= tunerRSSEvery {
			r.rss = append(r.rss, rssMB())
			r.rssAt = append(r.rssAt, at)
		}
		if j < len(t.streams[c]) && op.first {
			r.firstSeen++
		}
		ms := float64(el) / 1e6
		if r.tr.on {
			r.latTraced = append(r.latTraced, ms)
			r.wallTraced += el
		} else {
			r.lat = append(r.lat, ms)
			r.wall += el
		}
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("client %d op %d %v: %v", c, j, k.q, err))
			continue
		}
		sum := sha256.Sum256(resp)
		if prev, ok := t.bodies[c][op.key]; !ok {
			t.bodies[c][op.key] = sum
		} else if prev != sum {
			r.problems = append(r.problems, fmt.Sprintf("client %d op %d %v: response differs from an earlier one for the same key", c, j, k.q))
		}
		switch {
		case !hit:
			r.missMS = append(r.missMS, ms)
			r.cold = append(r.cold, k.q)
			continue
		case !r.tr.on:
			r.hitMS = append(r.hitMS, ms)
			continue
		}
		r.hitMSTraced = append(r.hitMSTraced, ms)
		hd := r.tr.begin("tuner.decide")
		t1 := time.Now()
		_, err = t.svc.Decide(k.q)
		r.decideUS = append(r.decideUS, float64(time.Since(t1))/1e3)
		r.tr.end(hd)
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("client %d in-process decide %v: %v", c, k.q, err))
		}
	}
	return r
}

func (t *tunerServe) measure(d time.Duration, traced bool) (*phase, error) {
	defer t.stop()
	epoch := time.Now()
	deadline := epoch.Add(d)
	done := make(chan *clientResult, 1)
	go func() { done <- t.loop(1, deadline, traced, epoch) }()
	r0 := t.loop(0, deadline, traced, epoch)
	r1 := <-done
	ph := &phase{tailPct: tunerTailPct, layer: map[string]float64{}}
	// ops_per_s is the ops both clients completed by the deadline over
	// the whole phase: a miss costs thousands of hits, so short windows
	// would count whichever misses fell in them. peak_rss_mb is the
	// median over the phase's whole windows of the largest resident set
	// sampled.
	completed := 0
	for _, r := range []*clientResult{r0, r1} {
		for _, at := range r.done {
			if at < d {
				completed++
			}
		}
	}
	ph.rates = []float64{float64(completed) / d.Seconds()}
	windows := int(d / tunerWindow)
	rss := make([]float64, windows)
	for _, r := range []*clientResult{r0, r1} {
		for i, at := range r.rssAt {
			if w := int(at / tunerWindow); w < windows {
				rss[w] = max(rss[w], r.rss[i])
			}
		}
	}
	for _, mb := range rss {
		if mb > 0 {
			ph.rss = append(ph.rss, mb)
		}
	}
	var decideUS, hitMS, hitMSTraced, missMS []float64
	var cold []tuner.Query
	firstSeen := 0
	for _, r := range []*clientResult{r0, r1} {
		ph.lat = append(ph.lat, r.lat...)
		ph.latTraced = append(ph.latTraced, r.latTraced...)
		ph.wall += r.wall
		ph.wallTraced += r.wallTraced
		ph.attempted += r.ops
		for _, p := range r.problems {
			ph.fail("%s", p)
		}
		missMS = append(missMS, r.missMS...)
		decideUS = append(decideUS, r.decideUS...)
		hitMS = append(hitMS, r.hitMS...)
		hitMSTraced = append(hitMSTraced, r.hitMSTraced...)
		cold = append(cold, r.cold...)
		firstSeen += r.firstSeen
	}
	ph.spans = mergeSpans(r0.tr, r1.tr)
	ph.modeled = t.hotCost
	ph.note("%d ops by %d clients (%d + %d); generated mix: %d first-seen keys (%.2f%%), %d repeats over %d hot keys + earlier first-seen keys",
		r0.ops+r1.ops, tunerClients, r0.ops, r1.ops, firstSeen,
		100*float64(firstSeen)/float64(r0.ops+r1.ops), r0.ops+r1.ops-firstSeen, t.nHot)
	st, err := t.stats()
	if err != nil {
		return nil, err
	}
	ph.note("service: hits=%d misses=%d shared=%d synths=%d evictions=%d entries=%d/%d errors=%d",
		st.Hits, st.Misses, st.Shared, st.Synths, st.Evictions, st.Entries, st.Capacity, st.Errors)
	if traced {
		hit := median(decideUS)
		ph.layer["tuner.hit_us_p50"] = hit
		ph.layer["tuner.http_self_us"] = 1000*median(hitMSTraced) - hit
		ph.layer["tuner.miss_ms_p50"] = median(missMS)
		ph.layer["tuner.synth_ms_p50"] = replaySynth(t.svc.Params(), cold)
		// The in-process decisions above were hits too; leave them out.
		served := float64(st.Hits - int64(len(decideUS)))
		ph.layer["tuner.hit_ratio"] = served / (served + float64(st.Misses+st.Shared))
		ph.layer["tuner.evictions"] = float64(st.Evictions)
		ph.layer["tuner.shared"] = float64(st.Shared)
		ph.layer["tuner.warmstart_s"] = t.warmstartS
		// Misses cost thousands of hits and all fall on traced ops, so
		// the overhead is taken over hits alone. It uses medians: the op
		// after a client's miss is untraced and pays for the garbage the
		// miss left.
		if u, tr := median(hitMS), median(hitMSTraced); tr > 0 {
			ph.layer["trace_overhead_frac"] = 1 - u/tr
		}
	}
	return ph, nil
}

// stats reads the service's /v1/stats snapshot over HTTP.
func (t *tunerServe) stats() (tuner.Stats, error) {
	var st tuner.Stats
	resp, err := t.clients[0].Get(t.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// replaySynth times sched.Synthesize with the service's options on the
// first of the traced run's cold keys of each machine shape, so the mix
// does not depend on the run's length, and returns the median in ms.
func replaySynth(prm *netmodel.Params, cold []tuner.Query) float64 {
	var ms []float64
	seen := map[[2]int]bool{}
	for _, q := range cold {
		sh := [2]int{q.Nodes, q.PPN}
		if seen[sh] {
			continue
		}
		seen[sh] = true
		cq, _, err := q.Canonical()
		if err != nil {
			continue
		}
		t0 := time.Now()
		_, err = sched.Synthesize(cq.Cluster(), prm, cq.Msg,
			sched.SynthOptions{PruneMargin: tuner.DefaultPruneMargin, Health: cq.Health})
		if err == nil {
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
	}
	return median(ms)
}

// check compares the two clients' responses: the same key must get the
// same bytes from either client, hit or miss.
func (t *tunerServe) check(ph *phase) {
	for key, sum := range t.bodies[1] {
		ph.attempted++
		if other, ok := t.bodies[0][key]; ok && other != sum {
			ph.fail("key %v got different responses on the two clients", t.keys[key].q)
		}
	}
	ph.note("correctness gate: %d keys byte-compared across clients", len(t.bodies[1]))
}
