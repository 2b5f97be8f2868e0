// Package metrics provides the synthesis pipeline's quantitative
// instrumentation: a Collector of cheap atomic counters (SAT decisions,
// conflicts, propagations, learned clauses, BDD nodes, state-graph
// states explored and merged, ESPRESSO passes, modular passes, formula
// sizes) carried on the context.Context alongside the
// internal/trace Tracer. Hot paths fetch the collector once with From
// and call Add on it; both are nil-safe, so an uninstrumented run pays
// only a single context lookup per coarse operation (per formula, per
// graph, per minimization — never per inner-loop iteration). The
// pipeline driver snapshots the collector at stage boundaries, giving
// per-stage counter deltas in Circuit.Stages, and cmd/bench serializes
// whole-run totals into BENCH_*.json records (internal/benchrec).
package metrics

import (
	"context"
	"sync/atomic"
)

// Kind identifies one counter.
type Kind int

// The counter kinds. Their String names are part of the BENCH_*.json
// record schema (internal/benchrec) and must stay stable.
const (
	// SATDecisions counts branching decisions of the DPLL engine.
	SATDecisions Kind = iota
	// SATConflicts counts conflicts (backtracks) of the DPLL engine.
	SATConflicts
	// SATPropagations counts unit propagations of the DPLL engine.
	SATPropagations
	// SATLearned counts clauses learned by conflict analysis.
	SATLearned
	// SATRestarts counts DPLL restarts.
	SATRestarts
	// SATFormulas counts solved SAT/BDD constraint instances.
	SATFormulas
	// SATClauses accumulates the clause counts of all encoded formulas.
	SATClauses
	// SATVars accumulates the variable counts of all encoded formulas.
	SATVars
	// BDDNodes accumulates the node counts of BDD constraint solves.
	BDDNodes
	// SGStates counts state-graph states constructed (reachability
	// elaboration and CSC expansion).
	SGStates
	// SGStatesMerged counts states of the quotiented modular graphs.
	SGStatesMerged
	// EspressoExpand counts EXPAND passes of the two-level minimizer.
	EspressoExpand
	// EspressoReduce counts REDUCE passes of the two-level minimizer.
	EspressoReduce
	// Modules counts per-output modular partition passes.
	Modules
	// CacheHits counts module solves answered from the solve cache
	// (in-memory or on-disk).
	CacheHits
	// CacheMisses counts module solves the cache had to compute.
	CacheMisses
	// CacheInflight counts solves deduplicated against an identical
	// solve already in flight (singleflight).
	CacheInflight
	// SATWarmClauses accumulates the learned clauses re-seeded into DPLL
	// searches along widening/insertion chains.
	SATWarmClauses
	// SATAssumptions counts formulas solved as assumption-guarded steps of
	// a persistent incremental solver (every DPLL search of a CSC
	// formula).
	SATAssumptions
	// SGStatesStreamed counts expanded states emitted by the streaming
	// wave expansion (states that were never materialized into a graph).
	SGStatesStreamed
	// SGPeakFrontier is a high-water mark (recorded with Max, not Add):
	// the widest BFS wave any streaming expansion of the run reached —
	// the quantity that bounds streaming peak heap in place of total
	// state count.
	SGPeakFrontier
	// CachePeerHits counts module solves answered by a peer node's
	// cache through the remote tier (cluster cache exchange).
	CachePeerHits
	// CachePeerMisses counts remote-tier lookups that found no peer
	// record and fell through to a local solve.
	CachePeerMisses

	numKinds
)

var kindNames = [numKinds]string{
	SATDecisions:     "sat_decisions",
	SATConflicts:     "sat_conflicts",
	SATPropagations:  "sat_propagations",
	SATLearned:       "sat_learned",
	SATRestarts:      "sat_restarts",
	SATFormulas:      "sat_formulas",
	SATClauses:       "sat_clauses",
	SATVars:          "sat_vars",
	BDDNodes:         "bdd_nodes",
	SGStates:         "sg_states",
	SGStatesMerged:   "sg_states_merged",
	EspressoExpand:   "espresso_expand",
	EspressoReduce:   "espresso_reduce",
	Modules:          "modules",
	CacheHits:        "modcache_hits",
	CacheMisses:      "modcache_misses",
	CacheInflight:    "modcache_inflight",
	SATWarmClauses:   "sat_warm_clauses",
	SATAssumptions:   "sat_assumptions",
	SGStatesStreamed: "sg_states_streamed",
	SGPeakFrontier:   "sg_peak_frontier",
	CachePeerHits:    "modcache_peer_hits",
	CachePeerMisses:  "modcache_peer_misses",
}

// String returns the counter's stable schema name.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Kinds lists every counter kind in schema order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Collector accumulates counters. All methods are safe for concurrent
// use and nil-safe: a nil *Collector is the no-op collector, so hot
// paths need no branch beyond the receiver check Add performs itself.
type Collector struct {
	c [numKinds]atomic.Int64
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Add increments counter k by n. No-op on a nil collector.
func (c *Collector) Add(k Kind, n int64) {
	if c == nil || k < 0 || k >= numKinds {
		return
	}
	c.c[k].Add(n)
}

// Max raises counter k to n when n is larger (a high-water mark, used
// for SGPeakFrontier). No-op on a nil collector. Snapshot deltas of a
// Max-maintained counter report the movement of the high-water mark
// across the window, which is zero unless the window raised it.
func (c *Collector) Max(k Kind, n int64) {
	if c == nil || k < 0 || k >= numKinds {
		return
	}
	for {
		cur := c.c[k].Load()
		if n <= cur || c.c[k].CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns counter k's current value (0 on a nil collector).
func (c *Collector) Value(k Kind) int64 {
	if c == nil || k < 0 || k >= numKinds {
		return 0
	}
	return c.c[k].Load()
}

// Reset zeroes every counter.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.c {
		c.c[i].Store(0)
	}
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot [numKinds]int64

// Snapshot copies the current counter values (zero on nil).
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	for i := range s {
		s[i] = c.c[i].Load()
	}
	return s
}

// Map returns the non-zero counters keyed by their schema names; nil
// when every counter is zero.
func (c *Collector) Map() map[string]int64 { return c.Snapshot().Delta(Snapshot{}) }

// Delta returns the non-zero differences s−prev keyed by the counters'
// schema names; nil when nothing changed.
func (s Snapshot) Delta(prev Snapshot) map[string]int64 {
	var out map[string]int64
	for i := range s {
		if d := s[i] - prev[i]; d != 0 {
			if out == nil {
				out = make(map[string]int64)
			}
			out[Kind(i).String()] = d
		}
	}
	return out
}

type ctxKey struct{}

// With attaches a collector to the context. A nil collector returns ctx
// unchanged.
func With(ctx context.Context, c *Collector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, c)
}

// From returns the collector carried by ctx, or nil. The nil result is
// directly usable: every Collector method no-ops on nil.
func From(ctx context.Context) *Collector {
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}
