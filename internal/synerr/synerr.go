// Package synerr defines the synthesis error taxonomy. Every layer of
// the pipeline reports failure through one of these sentinel errors
// (wrapped with context via fmt.Errorf's %w), so callers dispatch with
// errors.Is instead of threading abort booleans through every return
// value or matching message strings.
package synerr

import "errors"

var (
	// ErrCanceled reports that the run's context was canceled or its
	// deadline expired before synthesis finished. Errors produced by
	// Canceled also match the underlying context error
	// (context.Canceled or context.DeadlineExceeded).
	ErrCanceled = errors.New("synthesis canceled")

	// ErrBacktrackLimit reports that a SAT search exhausted its
	// backtrack (or flip) budget before reaching a verdict — the
	// outcome the paper's Table 1 prints as "SAT Backtrack Limit". The
	// facade maps it to Circuit.Aborted.
	ErrBacktrackLimit = errors.New("SAT backtrack limit exhausted")

	// ErrStateLimit reports that state graph generation exceeded its
	// exploration cap (Options.MaxStates).
	ErrStateLimit = errors.New("state graph exceeds the state limit")

	// ErrModuleUnsolvable reports that a per-output modular graph
	// admits no state-signal assignment, even incrementally — the case
	// the widening retry on the whole graph exists to repair.
	ErrModuleUnsolvable = errors.New("modular graph unsolvable")

	// ErrConflictsPersist reports that CSC conflicts survived every
	// expansion-refinement round (three in internal/core).
	ErrConflictsPersist = errors.New("CSC conflicts persist after expansion refinement")
)

// canceledError adapts a context error into the taxonomy: it matches
// ErrCanceled via Is and unwraps to the context's own error so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded keep
// working.
type canceledError struct{ cause error }

func (e *canceledError) Error() string {
	if e.cause == nil {
		return ErrCanceled.Error()
	}
	return ErrCanceled.Error() + ": " + e.cause.Error()
}

func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

func (e *canceledError) Unwrap() error { return e.cause }

// Canceled wraps a context error (ctx.Err()) so the result matches both
// ErrCanceled and the original cause.
func Canceled(cause error) error { return &canceledError{cause: cause} }
