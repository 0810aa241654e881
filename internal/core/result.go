package core

import (
	"errors"
	"fmt"
)

// Result holds the two outputs of a multiprefix operation.
type Result[T any] struct {
	// Multi[i] is the combine, in vector order, of all values preceding
	// element i that carry the same label as element i; the identity for
	// the first element of each class. len(Multi) == n.
	Multi []T
	// Reductions[k] is the combine of all values labeled k; the identity
	// for labels that never appear. len(Reductions) == m.
	Reductions []T
}

// ErrBadInput is wrapped by every input-validation failure in this package.
var ErrBadInput = errors.New("multiprefix: bad input")

// Label is the element type of a label vector: int where callers pass
// labels in, int32 for the copy a backend plan keeps (4 bytes a label,
// half the bytes its bucket passes stream). The serial bucket pass, the
// chunk runner, the counting sorts (BuildSortedIndexInto and its
// sharded form) and the spinetree link phases take it as a type
// parameter, so neither form is copied into the other.
type Label interface{ int | int32 }

// checkInputs validates the common (values, labels, m) contract shared by
// all engines: equal lengths, m >= 0, and every label in [0, m).
func checkInputs[T any, L Label](op Op[T], values []T, labels []L, m int) error {
	if !op.Valid() {
		return fmt.Errorf("%w: operator has nil Combine", ErrBadInput)
	}
	if len(values) != len(labels) {
		return fmt.Errorf("%w: len(values)=%d, len(labels)=%d", ErrBadInput, len(values), len(labels))
	}
	if m < 0 {
		return fmt.Errorf("%w: m=%d < 0", ErrBadInput, m)
	}
	for i, l := range labels {
		if l < 0 || int(l) >= m {
			return fmt.Errorf("%w: labels[%d]=%d outside [0, %d)", ErrBadInput, i, l, m)
		}
	}
	return nil
}

// wrapBadInput formats a validation error wrapping ErrBadInput.
func wrapBadInput(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadInput, fmt.Sprintf(format, args...))
}

// checkAddrs validates that every entry of an address/label vector is a
// legal index into a target of length m — the guard the derived
// operations (FetchOp, CombiningSend, Beta, Enumerate) apply before
// indexing user-supplied addresses, so a bad address is a wrapped
// ErrBadInput instead of an index-out-of-range panic. It also shields
// against custom Engine implementations that skip validation.
func checkAddrs(name string, addrs []int, m int) error {
	for i, a := range addrs {
		if a < 0 || a >= m {
			return wrapBadInput("%s[%d]=%d outside [0, %d)", name, i, a, m)
		}
	}
	return nil
}

// checkDerivedArgs validates the (op, engine) pair every derived
// operation receives: a zero Op (nil Combine) and a nil engine are both
// rejected up front so no engine ever sees them.
func checkDerivedArgs[T any](op Op[T], engine Engine[T]) error {
	if !op.Valid() {
		return wrapBadInput("operator has nil Combine")
	}
	if engine == nil {
		return wrapBadInput("nil engine")
	}
	return nil
}

// fillIdentity sets every element of dst to the operator identity.
func fillIdentity[T any](dst []T, identity T) {
	for i := range dst {
		dst[i] = identity
	}
}
