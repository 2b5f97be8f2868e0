package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestScopeLabelsFlowIntoEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSON(&buf)
	ctx := With(context.Background(), tr, "mmu0", "modular")
	ctx = WithStage(ctx, "modules")
	ctx = WithOutput(ctx, "y")

	StageStart(ctx, "modules")
	Formula(ctx, FormulaEvent{Signals: 1, Vars: 10, Clauses: 20, Literals: 44,
		Status: "SAT", Duration: 2 * time.Millisecond})
	StageEnd(ctx, "modules", 5*time.Millisecond, errors.New("boom"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var evs []map[string]any
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		evs = append(evs, m)
	}
	if evs[0]["type"] != "stage_start" || evs[0]["model"] != "mmu0" || evs[0]["method"] != "modular" {
		t.Errorf("stage_start = %v", evs[0])
	}
	if evs[1]["type"] != "formula" || evs[1]["output"] != "y" || evs[1]["stage"] != "modules" ||
		evs[1]["status"] != "SAT" {
		t.Errorf("formula = %v", evs[1])
	}
	if evs[2]["type"] != "stage_end" || evs[2]["err"] != "boom" {
		t.Errorf("stage_end = %v", evs[2])
	}
}

func TestNoTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	if Enabled(ctx) {
		t.Fatal("Enabled on bare context")
	}
	// Must not panic.
	StageStart(ctx, "x")
	StageEnd(ctx, "x", 0, nil)
	Formula(ctx, FormulaEvent{})
	if c := With(ctx, nil, "m", "modular"); Enabled(c) {
		t.Fatal("nil tracer enabled")
	}
}

func TestJSONTracerConcurrentLinesStayWellFormed(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSON(&buf)
	ctx := With(context.Background(), tr, "m", "direct")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				Formula(ctx, FormulaEvent{Signals: 1, Status: "SAT"})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 16*50 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("invalid JSON line %q", l)
		}
	}
}

func TestLogTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewLog(&buf)
	ctx := With(context.Background(), tr, "fifo", "modular")
	StageStart(ctx, "logic")
	StageEnd(ctx, "logic", time.Millisecond, nil)
	Formula(ctx, FormulaEvent{Status: "UNSAT"})
	out := buf.String()
	for _, want := range []string{"fifo/modular", "stage logic start", "stage logic end", "(global)", "UNSAT"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}
