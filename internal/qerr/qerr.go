// Package qerr defines the typed error taxonomy of the query API.
// Every terminal query failure surfaced through Rows.Err, QueryHandle.Err
// or a task Outcome wraps one of these sentinels (or *ParseError), so
// callers branch with errors.Is / errors.As instead of string matching —
// the contract production database drivers converged on.
package qerr

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/budget"
	"repro/internal/qlang"
)

// Sentinel errors. They are returned wrapped (with task / query
// context); always test with errors.Is.
var (
	// ErrCanceled reports that the query's context was canceled (or the
	// query was closed / the engine shut down) before it finished.
	ErrCanceled = errors.New("qurk: query canceled")
	// ErrDeadline reports that the query's virtual-time deadline
	// (WithDeadline) expired before it finished.
	ErrDeadline = errors.New("qurk: query deadline exceeded")
	// ErrBudgetExhausted reports that a budget — the engine account or a
	// per-query WithBudget cap — could not cover a HIT.
	ErrBudgetExhausted = errors.New("qurk: budget exhausted")
)

// ParseError is a query-text error with position information.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("qurk: parse error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Classify maps a low-level error onto the taxonomy: budget failures
// gain ErrBudgetExhausted, qlang position errors become *ParseError,
// context errors become ErrCanceled / ErrDeadline. Errors already in
// the taxonomy and unclassifiable errors pass through unchanged.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrBudgetExhausted):
		return err
	case errors.Is(err, budget.ErrExhausted):
		return fmt.Errorf("%w: %v", ErrBudgetExhausted, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrDeadline, err)
	}
	var qe *qlang.Error
	if errors.As(err, &qe) {
		return &ParseError{Line: qe.Line, Col: qe.Col, Msg: qe.Msg}
	}
	var pe *ParseError
	if errors.As(err, &pe) {
		return pe
	}
	return err
}

// FromContext converts a context's termination cause into the taxonomy
// (ErrDeadline for deadline expiry, ErrCanceled otherwise).
func FromContext(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}
