package csc_test

// Every DPLL formula of a synthesis runs on a chain solver (DESIGN.md
// §3.12). These tests hand a run one checked chain solver
// (csc.CheckedChainSolver), which compares every step it solves with
// Encode's one-shot formula solved from scratch by sat.SolveWarm on the
// same graph, conflicts, m and warm-chain seeds: the formula size, the
// verdict, the five search counters, the stable export and the
// tightened model. Every step whose constraints fit the diagram
// oracle's node limit is also decided by the diagram: the verdicts must
// agree, and a SAT step's tightened model must satisfy the diagram with
// no fewer excited states than its minimum. The tests log how many
// steps and UNSAT verdicts the diagram decided. The modular method runs
// every Table-1 row and handshake k=3; the Direct method's stage list
// (csc.Solve, then core.ExpandToCSC and core.DeriveLogic, as the facade
// runs it) every Table-1 row. The tests sit in an external package so
// they can import internal/core.

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/core"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// checkedRun hands run a checked chain solver and a metrics collector,
// then checks that every formula the run recorded was a checked step:
// no DPLL search took another path. The diagram oracle's counts add up
// in oracle.
func checkedRun(t *testing.T, oracle *csc.OracleTally, run func(ctx context.Context, incr *csc.ChainSolver) []csc.FormulaStats) {
	t.Helper()
	verdicts := map[sat.Status]int{}
	mc := metrics.New()
	formulas := run(metrics.With(context.Background(), mc), csc.CheckedChainSolver(t, verdicts, oracle))
	steps := 0
	for _, n := range verdicts {
		steps += n
	}
	if steps != len(formulas) || int64(steps) != mc.Map()["sat_formulas"] {
		t.Fatalf("%d checked steps for %d formulas (%d recorded)", steps, len(formulas), mc.Map()["sat_formulas"])
	}
}

func TestIncrementalMatchesFreshModular(t *testing.T) {
	type row struct {
		name      string
		load      func() (*stg.G, error)
		expandXor bool
		table1    bool
	}
	var rows []row
	for _, name := range bench.Names() {
		rows = append(rows, row{name, func() (*stg.G, error) { return bench.Load(name) }, false, true})
	}
	rows = append(rows, row{"handshake-k3", func() (*stg.G, error) { return stg.Handshakes("", 3, 2) }, false, false})
	for _, name := range []string{"fifo", "vbe4a", "nak-pa"} {
		rows = append(rows, row{name + "-expandxor", func() (*stg.G, error) { return bench.Load(name) }, true, false})
	}
	var table1, others csc.OracleTally
	table1Rows := 0
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			spec, err := r.load()
			if err != nil {
				t.Fatal(err)
			}
			oracle := &others
			if r.table1 {
				oracle = &table1
				table1Rows++
			}
			checkedRun(t, oracle, func(ctx context.Context, incr *csc.ChainSolver) []csc.FormulaStats {
				opt := core.Options{Workers: 1, SAT: csc.SolveOptions{ExpandXor: r.expandXor, Incr: incr}}
				res, err := core.Synthesize(ctx, spec, opt)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				var fs []csc.FormulaStats
				for _, o := range res.Outputs {
					fs = append(fs, o.Formulas...)
				}
				return append(fs, res.Fallback...)
			})
		})
	}
	t.Logf("Table 1: %v", table1)
	t.Logf("handshake-k3 and the expanded encoding: %v", others)
	// The diagram decides 26 of Table 1's 55 steps, among them 6 of its
	// 9 UNSAT verdicts: fewer means the oracle stopped checking.
	if table1Rows == len(bench.Names()) && (table1.Decided < 26 || table1.Unsat < 6) {
		t.Fatalf("Table 1: %v, want at least 26 steps and 6 UNSAT verdicts decided", table1)
	}
}

func TestIncrementalMatchesFreshDirect(t *testing.T) {
	var oracle csc.OracleTally
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "mr0" || name == "mr1" || name == "mmu0") {
				t.Skip("one whole-graph formula of several seconds, searched twice")
			}
			spec, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			full, err := sg.FromSTG(spec, sg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkedRun(t, &oracle, func(ctx context.Context, incr *csc.ChainSolver) []csc.FormulaStats {
				opt := core.Options{Workers: 1, SAT: csc.SolveOptions{Incr: incr}}
				dr, err := csc.Solve(ctx, full, opt.SAT)
				if err != nil {
					t.Fatalf("%s: csc: %v", name, err)
				}
				view, _, fallback, err := core.ExpandToCSC(ctx, full, opt)
				if err != nil {
					t.Fatalf("%s: expand: %v", name, err)
				}
				if _, err := core.DeriveLogic(ctx, view, full, nil, nil, opt); err != nil {
					t.Fatalf("%s: logic: %v", name, err)
				}
				return append(dr.Formulas, fallback...)
			})
		})
	}
	t.Logf("Table 1: %v", oracle)
}
