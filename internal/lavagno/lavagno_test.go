package lavagno

import (
	"context"
	"errors"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
	"asyncsyn/internal/synerr"
)

const twoPulse = `
.model tp
.inputs a
.outputs b
.graph
a+ b+
b+ b-
b- a-
a- b+/2
b+/2 b-/2
b-/2 a+
.marking { <b-/2,a+> }
.end
`

func load(t *testing.T, src string) *sg.Graph {
	t.Helper()
	g, err := stg.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	sgr, err := sg.FromSTG(g, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sgr
}

func TestSolveSmall(t *testing.T) {
	g := load(t, twoPulse)
	res, err := Solve(context.Background(), g, csc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted < 1 {
		t.Fatalf("result %+v", res)
	}
	if conf := sg.Analyze(g); conf.N() != 0 {
		t.Fatalf("%d conflicts remain", conf.N())
	}
	if bad := g.CheckPhaseConsistency(); len(bad) != 0 {
		t.Fatalf("phases inconsistent: %v", bad)
	}
	for i, ss := range g.StateSigs {
		if ss.Name == "" {
			t.Fatalf("signal %d unnamed", i)
		}
	}
}

func TestSolveCleanGraphInsertsNothing(t *testing.T) {
	g := load(t, `
.model hs
.inputs r
.outputs a
.graph
r+ a+
a+ r-
r- a-
a- r+
.marking { <a-,r+> }
.end
`)
	res, err := Solve(context.Background(), g, csc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 {
		t.Fatalf("clean graph: %+v", res)
	}
}

// TestOneSignalPerIteration: the method inserts signals one at a time,
// so the formula count equals or exceeds the inserted count.
func TestOneSignalPerIteration(t *testing.T) {
	spec, err := bench.Load("pa")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), g, csc.SolveOptions{})
	if errors.Is(err, synerr.ErrBacktrackLimit) {
		t.Skip("pa aborted under default budget")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted < 2 {
		t.Fatalf("pa needs ≥2 signals, got %d", res.Inserted)
	}
	if len(res.Formulas) < res.Inserted {
		t.Fatalf("%d formulas for %d signals", len(res.Formulas), res.Inserted)
	}
	for _, f := range res.Formulas {
		if f.Signals != 1 {
			t.Fatalf("iteration attempted %d signals at once", f.Signals)
		}
	}
}

func TestAbortsAtSignalCap(t *testing.T) {
	spec, err := bench.Load("mmu0")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = solve(context.Background(), g, csc.SolveOptions{}, 2)
	if !errors.Is(err, synerr.ErrBacktrackLimit) {
		t.Fatalf("mmu0 with a 2-signal cap must abort, got %v", err)
	}
}
