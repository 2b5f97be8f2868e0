package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/core"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// spec is one input of a workload.
type spec struct {
	name string
	src  string // .g text handed to asyncsyn.ParseSTGString
	g    *stg.G // the same net, for the quotient probe
}

// workload is one set of inputs, driven by one closed-loop client: the
// next item starts when the previous one has finished. An item is the
// unit the benchmark times.
type workload struct {
	name, why string
	method    asyncsyn.Method
	maxStates int
	// shared runs every item against one solve cache primed in setup;
	// otherwise each synthesis gets the library's fresh per-run cache.
	shared bool
	load   func() ([]spec, error)
}

var workloads = []workload{
	{
		name:   "table1-cold",
		why:    "one pass over the 23 Table-1 specs, fresh solve cache per synthesis: many small syntheses, where the module stage (small SAT formulas, per-call overhead, cache writes) takes most of the time",
		method: asyncsyn.Modular, load: table1Specs,
	},
	{
		name:   "table1-warm",
		why:    "the same passes against one solve cache primed in setup: every module solve is a cache read, so a change that slows hits shows here and not in table1-cold",
		method: asyncsyn.Modular, shared: true, load: table1Specs,
	},
	{
		name:   "handshake-k5",
		why:    "the one large design (6252 initial, 20954 final states): module SAT and logic split the time, and streaming expansion and peak heap matter",
		method: asyncsyn.Modular, maxStates: 1 << 20, load: handshakeSpecs(5),
	},
	{
		name:   "direct-sat",
		why:    "the Direct whole-graph baseline on mmu1: one whole-graph SAT formula takes nearly all the time, so module-stage, module-cache and logic changes should leave it unchanged",
		method: asyncsyn.Direct, load: benchSpecs("mmu1"),
	},
}

func table1Specs() ([]spec, error) { return benchSpecs(bench.Names()...)() }

func benchSpecs(names ...string) func() ([]spec, error) {
	return func() ([]spec, error) {
		out := make([]spec, 0, len(names))
		for _, name := range names {
			src, err := bench.Source(name)
			if err != nil {
				return nil, err
			}
			g, err := bench.Load(name)
			if err != nil {
				return nil, err
			}
			out = append(out, spec{name: name, src: src, g: g})
		}
		return out, nil
	}
}

func handshakeSpecs(k int) func() ([]spec, error) {
	return func() ([]spec, error) {
		g, err := stg.Handshakes("", k, 2)
		if err != nil {
			return nil, err
		}
		return []spec{{name: g.Name, src: stg.Format(g), g: g}}, nil
	}
}

// state is one workload run after setup.
type state struct {
	w     workload
	specs []spec
	rng   *rand.Rand
	cache *asyncsyn.SolveCache // shared workloads only
	// ref holds each spec's reference digest: from the cold pass of setup
	// on shared workloads, otherwise from the spec's first measured item.
	ref map[string]string
	// first holds each spec's first measured circuit, verified in the
	// check phase.
	first    map[string]*asyncsyn.Circuit
	failures []string
}

// item is one timed unit of work.
type item struct {
	interval
	wall, cpu time.Duration
	circuits  []named
	failed    bool
	// peak is the highest HeapInuse sampled while the item ran; allocMiB
	// and gcs are what it allocated and how many collections it caused.
	peak     uint64
	allocMiB float64
	gcs      float64
}

type named struct {
	spec string
	c    *asyncsyn.Circuit
}

// setup builds a workload's inputs, primes the shared cache and runs one
// untimed warm-up item, so lazy initialization is not timed.
func setup(w workload, seed int64) (*state, error) {
	specs, err := w.load()
	if err != nil {
		return nil, err
	}
	st := &state{w: w, specs: specs, rng: rand.New(rand.NewSource(seed)),
		ref: make(map[string]string), first: make(map[string]*asyncsyn.Circuit)}
	if w.shared {
		// A cold pass with per-run caches gives the digests the warm items
		// must reproduce; a second pass fills the shared cache.
		for _, sp := range specs {
			c, err := st.synthesize(sp, nil, nil, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
			st.ref[sp.name] = c.Digest()
		}
		st.cache = asyncsyn.NewSolveCache()
		for _, sp := range specs {
			if _, err := st.synthesize(sp, st.cache, nil, nil, 0); err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
		}
	}
	if it := st.runItem(nil, nil); it.failed {
		return nil, fmt.Errorf("warm-up item failed: %v", st.failures)
	}
	return st, nil
}

func (st *state) fail(format string, args ...any) {
	st.failures = append(st.failures, fmt.Sprintf(format, args...))
}

// synthesize parses and synthesizes one spec through the facade. When
// traced it adds the parse and synthesize spans of the item itemID.
func (st *state) synthesize(sp spec, cache *asyncsyn.SolveCache, tr *tracer, mc *asyncsyn.Metrics, itemID int) (*asyncsyn.Circuit, error) {
	t0 := time.Now()
	s, err := asyncsyn.ParseSTGString(sp.src)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	opt := asyncsyn.Options{Method: st.w.method, MaxStates: st.w.maxStates, Cache: cache}
	var synthID int
	if tr != nil {
		synthID = tr.newID()
		tr.setSynth(synthID)
		opt.Tracer, opt.Metrics = tr, mc
	}
	c, err := asyncsyn.Synthesize(s, opt)
	t2 := time.Now()
	if tr != nil {
		tr.add(tr.newID(), itemID, "parse", t0, t1)
		tr.add(synthID, itemID, "synthesize", t1, t2)
	}
	return c, err
}

// runItem times one item: every spec of the workload, in an order drawn
// from the seed. Every item starts from a freshly collected heap, so all
// items meet the same collector state, as a one-shot run would.
func (st *state) runItem(tr *tracer, mc *asyncsyn.Metrics) item {
	var it item
	itemID := 0
	if tr != nil {
		itemID = tr.newID()
	}
	order := st.rng.Perm(len(st.specs))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	watch := metrics.WatchHeap(5 * time.Millisecond)
	cpu0 := cpuTime()
	start := time.Now()
	for _, k := range order {
		sp := st.specs[k]
		c, err := st.synthesize(sp, st.cache, tr, mc, itemID)
		if err != nil {
			st.fail("%s: %v", sp.name, err)
			it.failed = true
			continue
		}
		it.circuits = append(it.circuits, named{sp.name, c})
	}
	end := time.Now()
	it.interval, it.wall, it.cpu = interval{start, end}, end.Sub(start), cpuTime()-cpu0
	it.peak = watch.Stop()
	runtime.ReadMemStats(&after)
	it.allocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	it.gcs = float64(after.NumGC - before.NumGC)
	if tr != nil {
		tr.add(itemID, 0, "item", start, end)
	}
	return it
}

// accept checks an item's circuits after its timing: none aborted, and
// each digest equal to its spec's reference. It records each spec's
// first circuit for the check phase.
func (st *state) accept(it *item) {
	for _, n := range it.circuits {
		if n.c.Aborted {
			st.fail("%s: aborted", n.spec)
			it.failed = true
			continue
		}
		d := n.c.Digest()
		if want, ok := st.ref[n.spec]; !ok {
			st.ref[n.spec] = d
		} else if d != want {
			st.fail("%s: digest %s, want %s", n.spec, d, want)
			it.failed = true
		}
		if _, ok := st.first[n.spec]; !ok {
			st.first[n.spec] = n.c
		}
	}
}

// phase collects the items of one measured phase.
type phase struct {
	itemsMS, cpuMS, peakMiB []float64
	intervals               []interval
	attempted, failed       int
}

func (p *phase) record(it item) {
	p.itemsMS = append(p.itemsMS, ms(it.wall))
	p.cpuMS = append(p.cpuMS, ms(it.cpu))
	p.intervals = append(p.intervals, it.interval)
	p.peakMiB = append(p.peakMiB, float64(it.peak)/(1<<20))
	p.attempted++
	if it.failed {
		p.failed++
	}
}

// measure runs untraced items for the window, at least one.
func (st *state) measure(window time.Duration) phase {
	var p phase
	start := time.Now()
	for p.attempted == 0 || time.Since(start) < window {
		it := st.runItem(nil, nil)
		st.accept(&it)
		p.record(it)
	}
	return p
}

// tracePhase collects the traced run: traced and untraced items
// alternate, so the tracing overhead is measured under the same
// conditions, and the untraced items also give the allocation figures.
type tracePhase struct {
	traced, untraced phase
	layers           []map[string]float64 // one per traced item
	allocMiB, gcs    []float64            // one per untraced item
}

func (st *state) traceRun(window time.Duration, tr *tracer) tracePhase {
	var tp tracePhase
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < window; i++ {
		if i%2 == 1 {
			it := st.runItem(nil, nil)
			st.accept(&it)
			tp.untraced.record(it)
			tp.allocMiB = append(tp.allocMiB, it.allocMiB)
			tp.gcs = append(tp.gcs, it.gcs)
			continue
		}
		mc := asyncsyn.NewMetrics()
		tr.startRun(st.w.name)
		it := st.runItem(tr, mc)
		st.accept(&it)
		layers := map[string]float64{"sg.quotient_call_ms": ms(st.probeQuotient(tr, &it))}
		tp.traced.record(it)
		spanLayers(tr.endRun(), layers)
		counterLayers(mc.Map(), layers)
		for _, n := range it.circuits {
			circuitLayers(n.c, layers)
		}
		tp.layers = append(tp.layers, layers)
	}
	return tp
}

// probeQuotient times the module layer's graph work on its own, after
// the item: sg.FromSTG, then core.DetermineInputSet and
// (*sg.Graph).Quotient for each non-input signal of every spec.
func (st *state) probeQuotient(tr *tracer, it *item) time.Duration {
	start := time.Now()
	for _, sp := range st.specs {
		g, err := sg.FromSTG(sp.g, sg.Options{MaxStates: st.w.maxStates})
		if err != nil {
			st.fail("%s: quotient probe: %v", sp.name, err)
			it.failed = true
			continue
		}
		for o, b := range g.Base {
			if !b.Input {
				g.Quotient(core.DetermineInputSet(g, sp.g, o).Silenced)
			}
		}
	}
	end := time.Now()
	tr.add(tr.newID(), 0, "probe.quotient", start, end)
	return end.Sub(start)
}

// verify closed-loop-verifies each spec's first measured circuit,
// exhaustively: the state cap lies above the circuit's final state
// count. It returns the verification time and the number of failures.
func (st *state) verify() (time.Duration, int) {
	var total time.Duration
	failed := 0
	for _, sp := range st.specs {
		c, ok := st.first[sp.name]
		if !ok {
			st.fail("%s: no completed circuit to verify", sp.name)
			failed++
			continue
		}
		s, err := asyncsyn.ParseSTGString(sp.src)
		if err != nil {
			st.fail("%s: %v", sp.name, err)
			failed++
			continue
		}
		t := time.Now()
		v := c.Verify(s, 4*c.FinalStates+1024, 0)
		total += time.Since(t)
		if len(v) > 0 {
			st.fail("%s: %d verify violations, first: %s", sp.name, len(v), v[0])
			failed++
		}
	}
	return total, failed
}

// onePass sums a measure over one pass: each spec's first circuit.
func (st *state) onePass(f func(*asyncsyn.Circuit) int) float64 {
	total := 0
	for _, c := range st.first {
		total += f(c)
	}
	return float64(total)
}
