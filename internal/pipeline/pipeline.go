// Package pipeline is the staged-execution driver of the synthesis
// flow. The paper's algorithm is inherently staged — state graph
// elaboration, per-output partition/CSC, expansion refinement, logic
// derivation — and every method (modular, direct, Lavagno-style) is a
// list of named Stages run by one driver instead of hand-rolled glue.
// The driver owns the cross-cutting concerns: it checks the context
// before each stage so a canceled run stops at the next stage boundary
// (stages additionally poll the context inside their own hot loops),
// emits StageStart/StageEnd trace events, and records per-stage
// wall-clock stats for the caller to surface.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"asyncsyn/internal/metrics"
	"asyncsyn/internal/synerr"
	"asyncsyn/internal/trace"
)

// Stage is one named step of a synthesis run. Run receives a context
// already scoped to the stage (trace events emitted under it carry the
// stage name) and reports failure through the error taxonomy of
// internal/synerr; any non-nil error stops the pipeline.
type Stage struct {
	Name string
	Run  func(ctx context.Context) error
}

// StageStat records one executed stage.
type StageStat struct {
	Name     string
	Duration time.Duration
	// Err holds the stage's failure message ("" on success); the
	// typed error itself is returned by Run.
	Err string
	// Counters holds the metrics counters this stage advanced (the delta
	// of the run's collector across the stage, keyed by the stable
	// internal/metrics names); nil when no collector is attached or the
	// stage advanced nothing.
	Counters map[string]int64
}

// Run executes the stages in order. It returns the stats of every
// stage that ran (including a failed final stage) and the first error,
// wrapped with the stage name — sentinel errors from internal/synerr
// remain matchable with errors.Is through the wrapping. A context
// canceled before a stage starts yields synerr.ErrCanceled without
// running the stage.
func Run(ctx context.Context, stages []Stage) ([]StageStat, error) {
	stats := make([]StageStat, 0, len(stages))
	collector := metrics.From(ctx)
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return stats, synerr.Canceled(err)
		}
		sctx := trace.WithStage(ctx, st.Name)
		trace.StageStart(sctx, st.Name)
		before := collector.Snapshot()
		start := time.Now()
		err := st.Run(sctx)
		d := time.Since(start)
		stat := StageStat{Name: st.Name, Duration: d,
			Counters: collector.Snapshot().Delta(before)}
		if err != nil {
			stat.Err = err.Error()
		}
		stats = append(stats, stat)
		trace.StageEnd(sctx, st.Name, d, err)
		if err != nil {
			return stats, fmt.Errorf("stage %s: %w", st.Name, err)
		}
	}
	return stats, nil
}
