package core

import (
	"context"
	"testing"

	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// twoPhase is a minimal STG with CSC violations: the cycle
// a+ → b+ → b− → a− → b+/2 → b−/2 → a+ revisits codes 00 and 10 with
// different enabled outputs, so at least one state signal is required.
const twoPhase = `
.model twophase
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

func mustParse(t *testing.T, src string) *stg.G {
	t.Helper()
	g, err := stg.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return g
}

func TestSmokeTwoPhase(t *testing.T) {
	spec := mustParse(t, twoPhase)
	full, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatalf("state graph: %v", err)
	}
	if got := full.NumStates(); got != 6 {
		t.Fatalf("states = %d, want 6", got)
	}
	conf := sg.Analyze(full)
	if conf.N() != 2 {
		t.Fatalf("initial conflicts = %d, want 2", conf.N())
	}

	res, err := Synthesize(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.Inserted < 1 {
		t.Fatalf("inserted %d state signals, want ≥1", res.Inserted)
	}
	if got := sg.AnalyzeStream(res.View); got.N() != 0 {
		t.Fatalf("expanded graph still has %d conflicts", got.N())
	}
	if len(res.Functions) < 2 { // b plus at least one state signal
		t.Fatalf("got %d functions", len(res.Functions))
	}
	if res.Area <= 0 {
		t.Fatalf("area = %d", res.Area)
	}
	for _, f := range res.Functions {
		t.Logf("%s  (%d literals)", f, f.Literals())
	}
	t.Logf("initial %d states / %d signals → final %d states / %d signals, area %d",
		res.InitialStates, res.InitialSignals, res.FinalStates, res.FinalSignals, res.Area)
}
