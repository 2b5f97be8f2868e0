package synerr

import (
	"context"
	"errors"
	"net/http"
)

// ErrParse reports invalid input: an STG specification that failed to
// parse or validate, or an invalid option set (asyncsyn's
// Options.Normalize, a malformed daemon request). The facade wraps every
// such error with it (see Parse), so transports classify invalid input
// uniformly: the daemon answers 400, the CLI exits 2.
var ErrParse = errors.New("invalid input")

// parseError adapts an arbitrary parser error into the taxonomy: it
// matches ErrParse via Is and unwraps to the cause, so callers can
// still reach the concrete stg.ParseError (line numbers) underneath.
type parseError struct{ cause error }

func (e *parseError) Error() string {
	if e.cause == nil {
		return ErrParse.Error()
	}
	return ErrParse.Error() + ": " + e.cause.Error()
}

func (e *parseError) Is(target error) bool { return target == ErrParse }

func (e *parseError) Unwrap() error { return e.cause }

// Parse wraps a parser or validation error so the result matches
// ErrParse and the original cause. A nil cause returns nil.
func Parse(cause error) error {
	if cause == nil {
		return nil
	}
	return &parseError{cause: cause}
}

// Class is the coarse failure classification shared by every transport:
// the HTTP server maps a Class to a status code, the CLI to an exit
// code. It deliberately has fewer values than the sentinel taxonomy —
// transports care about who is at fault (the input, the deadline, the
// caller, the problem, the implementation), not which pipeline stage
// reported it.
type Class int

const (
	// ClassOK is a completed synthesis.
	ClassOK Class = iota
	// ClassParse is invalid input: the STG failed to parse or validate,
	// or the request options were malformed.
	ClassParse
	// ClassTimeout is a run stopped by an expired deadline
	// (Options.Timeout or a context deadline).
	ClassTimeout
	// ClassCanceled is a run stopped by explicit caller cancellation
	// (context canceled without a deadline having expired).
	ClassCanceled
	// ClassUnsolvable groups the resource/solvability failures: SAT
	// backtrack budget exhausted, state limit exceeded, modular graph
	// unsolvable, CSC conflicts persisting — the specification was
	// understood but no circuit was produced within the configured
	// budgets.
	ClassUnsolvable
	// ClassInternal is everything else: an unexpected failure of the
	// implementation.
	ClassInternal
)

// String returns the class's stable wire name (used in HTTP error
// bodies and logs).
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassParse:
		return "parse"
	case ClassTimeout:
		return "timeout"
	case ClassCanceled:
		return "canceled"
	case ClassUnsolvable:
		return "unsolvable"
	}
	return "internal"
}

// ClassOf classifies an error from the synthesis facade (or nil).
// Cancellation splits on the underlying context error: a deadline that
// expired is ClassTimeout, an explicit cancel is ClassCanceled.
func ClassOf(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, ErrParse):
		return ClassParse
	case errors.Is(err, ErrCanceled):
		if errors.Is(err, context.DeadlineExceeded) {
			return ClassTimeout
		}
		return ClassCanceled
	case errors.Is(err, ErrBacktrackLimit),
		errors.Is(err, ErrStateLimit),
		errors.Is(err, ErrModuleUnsolvable),
		errors.Is(err, ErrConflictsPersist):
		return ClassUnsolvable
	}
	return ClassInternal
}

// StatusClientClosed is the nginx-style non-standard status the daemon
// records when the client went away before the response was written.
const StatusClientClosed = 499

// HTTPStatus maps the class to the daemon's response status code.
func (c Class) HTTPStatus() int {
	switch c {
	case ClassOK:
		return http.StatusOK
	case ClassParse:
		return http.StatusBadRequest
	case ClassTimeout:
		return http.StatusRequestTimeout
	case ClassCanceled:
		return StatusClientClosed
	case ClassUnsolvable:
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// ExitCode maps the class to cmd/modsyn's process exit code:
// 0 = success, 2 = parse/usage, 3 = timeout (the CLI's only
// cancellation source), 4 = unsolvable/budget, 1 = internal.
func (c Class) ExitCode() int {
	switch c {
	case ClassOK:
		return 0
	case ClassParse:
		return 2
	case ClassTimeout, ClassCanceled:
		return 3
	case ClassUnsolvable:
		return 4
	}
	return 1
}
