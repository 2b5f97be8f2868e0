package metrics

import (
	"fmt"
	"io"
)

// kindHelp is the one-line HELP text exposed for each counter; indexed
// like kindNames.
var kindHelp = [numKinds]string{
	SATDecisions:     "Branching decisions of the DPLL engine.",
	SATConflicts:     "Conflicts (backtracks) of the DPLL engine.",
	SATPropagations:  "Unit propagations of the DPLL engine.",
	SATLearned:       "Clauses learned by conflict analysis.",
	SATRestarts:      "DPLL restarts.",
	SATFormulas:      "Solved SAT/BDD constraint instances.",
	SATClauses:       "Total clause count of all encoded formulas.",
	SATVars:          "Total variable count of all encoded formulas.",
	BDDNodes:         "Node counts of BDD constraint solves.",
	SGStates:         "State-graph states constructed.",
	SGStatesMerged:   "States of the quotiented modular graphs.",
	EspressoExpand:   "EXPAND passes of the two-level minimizer.",
	EspressoReduce:   "REDUCE passes of the two-level minimizer.",
	Modules:          "Per-output modular partition passes.",
	CacheHits:        "Module solves answered from the solve cache.",
	CacheMisses:      "Module solves the cache had to compute.",
	CacheInflight:    "Solves deduplicated against an in-flight solve.",
	SATWarmClauses:   "Learned clauses re-seeded into warm-started searches.",
	SATAssumptions:   "Formulas solved as assumption-guarded incremental steps.",
	SGStatesStreamed: "Expanded states emitted by the streaming wave expansion.",
	SGPeakFrontier:   "Widest BFS wave reached by any streaming expansion.",
	CachePeerHits:    "Module solves answered by a peer node's cache.",
	CachePeerMisses:  "Remote-tier lookups that found no peer record.",
}

// WriteProm renders the collector's counters in the Prometheus text
// exposition format, one metric per counter kind named
// <prefix><schema name> (e.g. asyncsyn_modcache_hits). Every kind is
// emitted, including zero-valued ones, so scrapes see a stable metric
// set from the first request on. A nil collector renders all zeros.
func WriteProm(w io.Writer, prefix string, c *Collector) {
	s := c.Snapshot()
	for i := range s {
		k := Kind(i)
		name := prefix + k.String()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, kindHelp[i], name, name, s[i])
	}
}
