package backend

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"multiprefix/internal/core"
)

// LabelSet is a label vector prepared for plan building: checked
// against its label space, in the int32 form a plan keeps, with its
// distinct labels counted and its cache digest taken, all in one pass
// over the labels (NewLabelSet). A plan built from a set takes the
// set's labels as its own and makes no pass over them to validate,
// narrow or count; a cache keys the set by Key and compares its labels
// on a digest hit.
type LabelSet struct {
	labels  []int32
	m       int
	classes int
	digest  uint64
}

// NewLabelSet prepares labels over the label space [0, m). It refuses,
// with an error wrapping core.ErrBadInput, m < 0, then the first label
// outside [0, m), then m > math.MaxInt32 (a plan's labels are int32),
// before it allocates anything m-sized. A []int32 vector becomes the
// set's own storage, so the caller must not change it afterwards; a
// []int vector is copied, narrowed, in the same pass.
func NewLabelSet[L core.Label](labels []L, m int) (LabelSet, error) {
	if m < 0 {
		return LabelSet{}, fmt.Errorf("%w: m=%d < 0", core.ErrBadInput, m)
	}
	if m > math.MaxInt32 {
		for i, l := range labels {
			if uint64(l) >= uint64(m) {
				return LabelSet{}, errLabel(i, l, m)
			}
		}
		return LabelSet{}, fmt.Errorf("%w: m=%d exceeds a plan's int32 label space", core.ErrBadInput, m)
	}
	own, owned := any(labels).([]int32)
	if !owned {
		own = make([]int32, len(labels))
	}
	// seen[l] is set for every label that occurs, with plain stores
	// that wait on nothing; the classes are counted from it at the end.
	seen := make([]byte, (m+7)&^7)
	um := uint64(m)
	h := digestSeeds
	i := 0
	for ; i+4 <= len(labels); i += 4 {
		a, b, c, d := labels[i], labels[i+1], labels[i+2], labels[i+3]
		if uint64(a) >= um || uint64(b) >= um || uint64(c) >= um || uint64(d) >= um {
			break // the tail loop finds which
		}
		seen[a], seen[b], seen[c], seen[d] = 1, 1, 1, 1
		if !owned {
			own[i], own[i+1], own[i+2], own[i+3] = int32(a), int32(b), int32(c), int32(d)
		}
		h[0] = digestStep(h[0], uint64(a))
		h[1] = digestStep(h[1], uint64(b))
		h[2] = digestStep(h[2], uint64(c))
		h[3] = digestStep(h[3], uint64(d))
	}
	for ; i < len(labels); i++ {
		l := labels[i]
		if uint64(l) >= um {
			return LabelSet{}, errLabel(i, l, m)
		}
		seen[l] = 1
		own[i] = int32(l)
		h[i&3] = digestStep(h[i&3], uint64(l))
	}
	classes := 0
	for j := 0; j < len(seen); j += 8 {
		classes += bits.OnesCount64(binary.LittleEndian.Uint64(seen[j:]))
	}
	return LabelSet{labels: own, m: m, classes: classes, digest: digestSum(&h, len(labels))}, nil
}

// LabelKey checks labels against the label space [0, m) as NewLabelSet
// does, refusing with the same errors in the same order, and returns
// KeyFor's key for them, allocating nothing. Unlike NewLabelSet it
// neither narrows the labels nor counts their classes: a cache looks a
// plan up by the key before it knows it must build one, and only a miss
// needs the set.
func LabelKey[L core.Label](backendName, opName string, labels []L, m int) (Key, error) {
	if m < 0 {
		return Key{}, fmt.Errorf("%w: m=%d < 0", core.ErrBadInput, m)
	}
	for i, l := range labels {
		if uint64(l) >= uint64(m) {
			return Key{}, errLabel(i, l, m)
		}
	}
	if m > math.MaxInt32 {
		return Key{}, fmt.Errorf("%w: m=%d exceeds a plan's int32 label space", core.ErrBadInput, m)
	}
	return KeyFor(backendName, opName, labels, m), nil
}

// errLabel is the error for labels[i] = l outside [0, m).
func errLabel[L core.Label](i int, l L, m int) error {
	return fmt.Errorf("%w: labels[%d]=%d outside [0, %d)", core.ErrBadInput, i, l, m)
}

// Labels returns the set's labels. They are the storage a plan built
// from the set keeps: callers must not modify them.
func (s LabelSet) Labels() []int32 { return s.labels }

// Key is the cache key of a plan over the set: KeyFor(backendName,
// opName, labels, m) without another pass over the labels.
func (s LabelSet) Key(backendName, opName string) Key {
	return Key{Backend: backendName, Op: opName, N: len(s.labels), M: s.m, Digest: s.digest}
}
