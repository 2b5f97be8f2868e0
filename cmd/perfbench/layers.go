package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"asyncsyn"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
	// counter, when set, is the asyncsyn.Metrics counter the per-layer
	// value is read from; a counter the library does not (or no longer)
	// report reads as 0.
	counter string
}

// endToEnd lists the metrics an untraced run reports; BENCHMARK.json
// lists the same names, units and directions.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "cpu_p50_ms", unit: "ms"},
	{name: "peak_heap_mib", unit: "MiB"},
	{name: "area_literals", unit: "literals"},
	{name: "state_signals", unit: "signals"},
}

// perLayer lists the metrics a traced run reports, grouped by the
// package that does the work. Times are per-item medians; counters are
// per item and repeat exactly. The speculative module scheduler's
// modspec_* counters are left out: with one processor (main) Workers
// defaults to 1 and the scheduler never runs.
var perLayer = []metricDef{
	{name: "stg.parse_ms", unit: "ms"},
	{name: "stage.elaborate_ms", unit: "ms"},
	{name: "stage.modules_ms", unit: "ms"},
	{name: "stage.residual_ms", unit: "ms"},
	{name: "stage.expand_ms", unit: "ms"},
	{name: "stage.logic_ms", unit: "ms"},
	{name: "stage.csc_ms", unit: "ms"},
	{name: "sat.busy_ms", unit: "ms"},
	{name: "sat.formulas", unit: "count", counter: "sat_formulas"},
	{name: "sat.decisions", unit: "count", counter: "sat_decisions"},
	{name: "sat.conflicts", unit: "count", counter: "sat_conflicts"},
	{name: "sat.propagations", unit: "count", counter: "sat_propagations"},
	{name: "sat.learned", unit: "count", counter: "sat_learned"},
	{name: "sat.restarts", unit: "count", counter: "sat_restarts"},
	{name: "sat.assumptions", unit: "count", counter: "sat_assumptions"},
	{name: "csc.clauses", unit: "count", counter: "sat_clauses"},
	{name: "csc.vars", unit: "count", counter: "sat_vars"},
	{name: "core.modules", unit: "count", counter: "modules"},
	{name: "core.widened", unit: "count"},
	{name: "core.self_ms", unit: "ms"},
	{name: "modcache.hits", unit: "count", counter: "modcache_hits"},
	{name: "modcache.misses", unit: "count", counter: "modcache_misses"},
	{name: "modcache.hit_ratio", unit: "ratio"},
	{name: "sg.states", unit: "count", counter: "sg_states"},
	{name: "sg.states_merged", unit: "count", counter: "sg_states_merged"},
	{name: "sg.states_streamed", unit: "count", counter: "sg_states_streamed"},
	{name: "sg.peak_frontier", unit: "count", counter: "sg_peak_frontier"},
	{name: "sg.quotient_call_ms", unit: "ms"},
	{name: "logic.espresso_expand", unit: "count", counter: "espresso_expand"},
	{name: "logic.espresso_reduce", unit: "count", counter: "espresso_reduce"},
	{name: "sim.verify_ms", unit: "ms"},
	{name: "runtime.alloc_mib_per_item", unit: "MiB"},
	{name: "runtime.gc_cycles_per_item", unit: "count"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "trace.coverage_ratio", unit: "ratio"},
}

// span is one timed interval of a traced item. Times are nanoseconds
// since the tracer was created; Parent 0 means a root span.
type span struct {
	Run      int    `json:"run"`
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

func spanMS(ns int64) float64 { return ms(time.Duration(ns)) }

// tracer keeps the spans of traced items in memory. The benchmark adds
// item, parse, synthesize and probe spans around its own calls; as the
// asyncsyn.Tracer of each synthesis it adds stage and formula spans. A
// stage or formula span ends when its event arrives and starts Duration
// earlier: speculative module lanes replay their formula events at
// commit, long after the formula was solved.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	keep     bool // retain every run's spans for -spans
	workload string
	run      int
	next     int
	synth    int            // span of the synthesis in progress
	open     map[string]int // stage name → its span id, while running
	cur      []span
	all      []span
}

func newTracer(keep bool) *tracer {
	return &tracer{t0: time.Now(), keep: keep, open: make(map[string]int)}
}

// startRun begins the spans of a new traced item.
func (t *tracer) startRun(workload string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run++
	t.workload = workload
	t.cur = nil
}

// endRun returns the current item's spans.
func (t *tracer) endRun() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.keep {
		t.all = append(t.all, t.cur...)
	}
	return t.cur
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// add records a span of the current run.
func (t *tracer) add(id, parent int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
}

func (t *tracer) addLocked(s span) {
	s.Run, s.Workload = t.run, t.workload
	t.cur = append(t.cur, s)
}

// setSynth makes id the parent of the stage spans that follow.
func (t *tracer) setSynth(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.synth = id
}

func (t *tracer) StageStart(e asyncsyn.StageEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[e.Stage] = t.next
}

func (t *tracer) StageEnd(e asyncsyn.StageEvent) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.open[e.Stage]
	delete(t.open, e.Stage)
	t.addLocked(span{ID: id, Parent: t.synth, Name: "stage." + e.Stage,
		Start: t.at(end.Add(-e.Duration)), End: t.at(end)})
}

func (t *tracer) FormulaSolved(e asyncsyn.FormulaEvent) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.addLocked(span{ID: t.next, Parent: t.open[e.Stage], Name: "formula",
		Start: t.at(end.Add(-e.Duration)), End: t.at(end)})
}

// spanLayers adds one item's span-derived times to out: parse and stage
// totals, the module stage's self time (its duration minus the part its
// formula spans cover), and the share of the item's wall time that
// parse and stage spans cover.
func spanLayers(spans []span, out map[string]float64) {
	var item span
	children := make(map[int][]span)
	var covered []span
	for _, s := range spans {
		switch {
		case s.Name == "item":
			item = s
		case s.Name == "parse":
			out["stg.parse_ms"] += spanMS(s.dur())
			covered = append(covered, s)
		case strings.HasPrefix(s.Name, "stage."):
			out[s.Name+"_ms"] += spanMS(s.dur())
			covered = append(covered, s)
		case s.Name == "formula":
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Name == "stage.modules" {
			out["core.self_ms"] += spanMS(s.dur() - unionWithin(children[s.ID], s))
		}
	}
	out["trace.coverage_ratio"] = ratio(float64(unionWithin(covered, item)), float64(item.dur()))
}

// unionWithin returns the length of the union of the spans' intervals
// clipped to the window w.
func unionWithin(spans []span, w span) int64 {
	iv := make([]span, 0, len(spans))
	for _, s := range spans {
		s.Start, s.End = max(s.Start, w.Start), min(s.End, w.End)
		if s.End > s.Start {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, end int64
	for i, s := range iv {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// counterLayers adds one item's collector counters to out; counters
// absent from the map read as 0.
func counterLayers(counters map[string]int64, out map[string]float64) {
	for _, m := range perLayer {
		if m.counter != "" {
			out[m.name] = float64(counters[m.counter])
		}
	}
	out["modcache.hit_ratio"] = ratio(out["modcache.hits"], out["modcache.hits"]+out["modcache.misses"])
}

// circuitLayers adds what one synthesized circuit reports about itself:
// SAT search time outside the solve cache and widened modules.
func circuitLayers(c *asyncsyn.Circuit, out map[string]float64) {
	for _, f := range c.Formulas {
		if !f.Cached {
			out["sat.busy_ms"] += ms(f.Time)
		}
	}
	for _, m := range c.Modules {
		if m.Widened {
			out["core.widened"]++
		}
	}
}
