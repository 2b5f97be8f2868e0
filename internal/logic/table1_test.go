package logic_test

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/core"
	"asyncsyn/internal/logic"
)

// TestMinimizeMatchesLegacyOnTable1 pins Minimize to the Cube-based
// loop on every function table that modular synthesis of the Table 1
// benchmarks minimizes: each function's table is extracted again from
// the final state graph over the support its cover was derived on.
func TestMinimizeMatchesLegacyOnTable1(t *testing.T) {
	tables := 0
	for _, name := range bench.Names() {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(context.Background(), spec, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range res.Functions {
			sig, ok := res.View.SignalIndex(f.Name)
			if !ok {
				t.Fatalf("%s: no signal %q", name, f.Name)
			}
			var mask uint64
			for _, v := range f.Vars {
				i, ok := res.View.SignalIndex(v)
				if !ok {
					t.Fatalf("%s: no signal %q", name, v)
				}
				mask |= 1 << i
			}
			tbl, err := res.View.FunctionTable(sig, mask)
			if err != nil {
				t.Fatalf("%s %s: %v", name, f.Name, err)
			}
			lspec := logic.Spec{NumVars: len(tbl.Vars), On: tbl.On, Off: tbl.Off}
			if err := logic.MatchLegacyMinimize(lspec, logic.Options{}); err != nil {
				t.Fatalf("%s %s: %v", name, f.Name, err)
			}
			tables++
		}
	}
	t.Logf("%d function tables compared", tables)
}
