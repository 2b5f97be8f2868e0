package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"asyncsyn/internal/synerr"
	"asyncsyn/internal/trace"
)

func TestRunExecutesInOrderAndRecordsStats(t *testing.T) {
	var order []string
	stats, err := Run(context.Background(), []Stage{
		{Name: "a", Run: func(context.Context) error { order = append(order, "a"); return nil }},
		{Name: "b", Run: func(context.Context) error { order = append(order, "b"); return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "a,b" {
		t.Errorf("order = %v", order)
	}
	if len(stats) != 2 || stats[0].Name != "a" || stats[1].Name != "b" {
		t.Errorf("stats = %+v", stats)
	}
	for _, s := range stats {
		if s.Err != "" {
			t.Errorf("unexpected stage error %+v", s)
		}
	}
}

func TestRunStopsOnTypedErrorAndKeepsSentinel(t *testing.T) {
	ran := false
	stats, err := Run(context.Background(), []Stage{
		{Name: "csc", Run: func(context.Context) error {
			return errors.New("direct solve: " + synerr.ErrBacktrackLimit.Error())
		}},
		{Name: "late", Run: func(context.Context) error { ran = true; return nil }},
	})
	if err == nil || ran {
		t.Fatalf("pipeline did not stop: err=%v ran=%v", err, ran)
	}
	if len(stats) != 1 || stats[0].Err == "" {
		t.Errorf("failed stage not recorded: %+v", stats)
	}

	// A wrapped sentinel must survive the driver's own wrapping.
	_, err = Run(context.Background(), []Stage{
		{Name: "expand", Run: func(context.Context) error { return synerr.ErrConflictsPersist }},
	})
	if !errors.Is(err, synerr.ErrConflictsPersist) {
		t.Errorf("sentinel lost through stage wrap: %v", err)
	}
	if !strings.Contains(err.Error(), "stage expand") {
		t.Errorf("stage name missing from error: %v", err)
	}
}

func TestRunChecksContextBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	_, err := Run(ctx, []Stage{
		{Name: "first", Run: func(context.Context) error { cancel(); return nil }},
		{Name: "second", Run: func(context.Context) error { ran = true; return nil }},
	})
	if !errors.Is(err, synerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
	if ran {
		t.Errorf("stage ran after cancellation")
	}
}

func TestRunEmitsTraceEventsPerStage(t *testing.T) {
	var buf bytes.Buffer
	ctx := trace.With(context.Background(), trace.NewJSON(&buf), "tp", "modular")
	_, err := Run(ctx, []Stage{
		{Name: "elaborate", Run: func(context.Context) error { return nil }},
		{Name: "logic", Run: func(ctx context.Context) error {
			trace.Formula(ctx, trace.FormulaEvent{Status: "SAT"})
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // 2×(start+end) + 1 formula
		t.Fatalf("got %d trace lines:\n%s", len(lines), buf.String())
	}
	var types []string
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad JSON %q: %v", l, err)
		}
		types = append(types, m["type"].(string))
		if m["type"] == "formula" && m["stage"] != "logic" {
			t.Errorf("formula event missing stage scope: %v", m)
		}
	}
	want := "stage_start,stage_end,stage_start,formula,stage_end"
	if strings.Join(types, ",") != want {
		t.Errorf("event order = %v", types)
	}
}
