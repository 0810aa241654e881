package core

import (
	"context"
	"errors"
)

// FallbackReport records what a Fallback engine observed during its
// most recent run.
type FallbackReport struct {
	// PrimaryErr is the error the primary engine produced — including a
	// recovered panic as *EnginePanicError — or nil when the primary
	// succeeded.
	PrimaryErr error
	// FellBack reports whether the serial reference engine produced the
	// returned result.
	FellBack bool
}

// Fallback wraps primary so that an internal failure degrades to the
// serial reference engine instead of failing the request: if primary
// returns an error or panics (the panic is recovered on the calling
// goroutine as well as inside primary's own workers), the same input is
// re-run through Serial and its result returned. Invalid input
// (ErrBadInput) and cancellation (context.Canceled/DeadlineExceeded)
// are returned as-is — retrying cannot fix either, and retrying a
// cancelled request would defeat the cancellation.
//
// When report is non-nil it is overwritten at the start of every call
// and filled in as the call proceeds; callers sharing one engine across
// goroutines must pass nil (or wrap per goroutine).
func Fallback[T any](primary Engine[T], report *FallbackReport) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		if report != nil {
			*report = FallbackReport{}
		}
		res, err := runShielded(primary, op, values, labels, m)
		if err == nil {
			return res, nil
		}
		if report != nil {
			report.PrimaryErr = err
		}
		if terminal(err) {
			return Result[T]{}, err
		}
		if report != nil {
			report.FellBack = true
		}
		return Serial(op, values, labels, m)
	}
}

// terminal reports the errors the Auto and Fallback engines return
// as-is instead of degrading to serial: invalid input and cancellation.
func terminal(err error) bool {
	return errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runShielded invokes an engine, converting a panic that escapes onto
// the calling goroutine into an *EnginePanicError. The built-in engines
// already recover their own panics; this protects against third-party
// Engine implementations that do not.
func runShielded[T any](eng Engine[T], op Op[T], values []T, labels []int, m int) (res Result[T], err error) {
	defer recoverEnginePanic("fallback", nil, &err)
	return eng(op, values, labels, m)
}
