package core

// This file holds the monomorphic fast paths: direct int64/float64
// loops that the engines substitute for the per-element op.Combine
// indirect call in their inner phases. Go cannot devirtualize a call
// through a struct-field closure, so the generic engines pay a call,
// an argument spill and a lost vectorization opportunity per element;
// the kernels below are plain monomorphic loops the compiler compiles
// to straight-line code. Each kernel mirrors its generic counterpart
// *exactly* — same iteration order, same tie- and NaN-behavior as the
// built-in Combine it replaces — so results are bit-identical and the
// paper's EREW phase structure (who reads/writes which slot in which
// step) is untouched: only the body of each combine is inlined.
//
// Dispatch is a type switch on the concrete slice type: []int64 and
// []float64 hit the kernels, everything else (including named types
// whose underlying type is int64) falls back to the generic loop. A
// FaultHook demotes every run to the generic path so injected faults
// still observe each combine.

// FastOp declares which built-in kernel family an operator's Combine
// is semantically equal to. See Op.Fast.
type FastOp uint8

const (
	// FastNone selects the generic path (the zero value).
	FastNone FastOp = iota
	// FastAdd means Combine(a, b) == a + b with Identity == 0.
	FastAdd
	// FastMax means Combine(a, b) == (a if a > b else b) — exactly that
	// comparison, which fixes tie and NaN behavior — with Identity the
	// type's minimum (math.MinInt64, -Inf).
	FastMax
	// FastMin means Combine(a, b) == (a if a < b else b) — again exactly
	// that comparison, fixing tie and NaN behavior — with Identity the
	// type's maximum (math.MaxInt64, +Inf).
	FastMin
	// FastAnd, FastOr and FastXor are the int64 bitwise families
	// (Identity -1, 0 and 0 respectively). float64 has no bitwise
	// operators, so these have kernels only at []int64; a float64 run
	// with a bitwise declaration (which would already violate the Fast
	// contract — no float64 Combine can equal a bitwise op) degrades to
	// the generic path at dispatch.
	FastAnd
	FastOr
	FastXor
)

// fastSegI64 reports whether the sorted segmented-scan kernel
// family implements fast monomorphically over []int64: every declared
// family (add/max/min directly, the bitwise families through the
// int64-only kernels).
func fastSegI64(fast FastOp) bool {
	return fast >= FastAdd && fast <= FastXor
}

// fastSegF64 is the []float64 counterpart: the comparison and additive
// families only — bitwise does not exist for float64.
func fastSegF64(fast FastOp) bool {
	return fast == FastAdd || fast == FastMax || fast == FastMin
}

// fastElem are the element types with monomorphic kernels.
type fastElem interface{ int64 | float64 }

// fastKind resolves the kernel family usable for one run: the op's
// declared capability, demoted to FastNone while a FaultHook needs to
// observe every combine.
func (op Op[T]) fastKind(hook FaultHook) FastOp {
	if hook != nil {
		return FastNone
	}
	return op.Fast
}

// asI64 and asF64 view a []T as its concrete element type; nil when T
// is a different type (or when the slice is nil, which callers treat
// the same way).
//
//mp:hotpath
func asI64[T any](s []T) []int64 {
	v, _ := any(s).([]int64)
	return v
}

//mp:hotpath
func asF64[T any](s []T) []float64 {
	v, _ := any(s).([]float64)
	return v
}

// tryBucketLoop runs the serial one-pass bucket algorithm with a
// monomorphic kernel. multi may be nil (reduce-only); buckets must be
// pre-filled with the identity. A false return means the caller must
// run the generic loop.
//
//mp:hotpath
func tryBucketLoop[T any, L Label](fast FastOp, values []T, labels []L, multi, buckets []T) bool {
	if fast == FastNone {
		return false
	}
	switch vs := any(values).(type) {
	case []int64:
		return bucketKernel(fast, vs, labels, asI64(multi), asI64(buckets))
	case []float64:
		return bucketKernel(fast, vs, labels, asF64(multi), asF64(buckets))
	}
	return false
}

//mp:hotpath
func bucketKernel[E fastElem, L Label](fast FastOp, values []E, labels []L, multi, buckets []E) bool {
	switch {
	case fast == FastAdd && multi == nil:
		for i, v := range values {
			buckets[labels[i]] += v
		}
	case fast == FastAdd:
		for i, v := range values {
			l := labels[i]
			s := buckets[l]
			multi[i] = s
			buckets[l] = s + v
		}
	case fast == FastMax && multi == nil:
		for i, v := range values {
			l := labels[i]
			if s := buckets[l]; !(s > v) {
				buckets[l] = v
			}
		}
	case fast == FastMax:
		for i, v := range values {
			l := labels[i]
			s := buckets[l]
			multi[i] = s
			if !(s > v) {
				buckets[l] = v
			}
		}
	case fast == FastMin && multi == nil:
		for i, v := range values {
			l := labels[i]
			if s := buckets[l]; !(s < v) {
				buckets[l] = v
			}
		}
	case fast == FastMin:
		for i, v := range values {
			l := labels[i]
			s := buckets[l]
			multi[i] = s
			if !(s < v) {
				buckets[l] = v
			}
		}
	default:
		return false
	}
	return true
}

// tryChunkApply runs one stride segment [lo, hi) of the offset-apply
// pass (Chunked pass 4): multi[i] = offsets[labels[i]] ⊕ multi[i].
func tryChunkApply[T any, L Label](fast FastOp, labels []L, offsets, multi []T, lo, hi int) bool {
	if fast == FastNone {
		return false
	}
	switch os := any(offsets).(type) {
	case []int64:
		return chunkApplyKernel(fast, labels, os, asI64(multi), lo, hi)
	case []float64:
		return chunkApplyKernel(fast, labels, os, asF64(multi), lo, hi)
	}
	return false
}

//mp:hotpath
func chunkApplyKernel[E fastElem, L Label](fast FastOp, labels []L, offsets, multi []E, lo, hi int) bool {
	switch fast {
	case FastAdd:
		for i := lo; i < hi; i++ {
			multi[i] += offsets[labels[i]]
		}
	case FastMax:
		for i := lo; i < hi; i++ {
			if o := offsets[labels[i]]; o > multi[i] {
				multi[i] = o
			}
		}
	case FastMin:
		for i := lo; i < hi; i++ {
			if o := offsets[labels[i]]; o < multi[i] {
				multi[i] = o
			}
		}
	default:
		return false
	}
	return true
}

// tryRowsumsCol runs the ROWSUMS phase over column c, stride indices
// [klo, khi), with a monomorphic kernel. The loop shape (one column,
// parents distinct within it — paper Corollary 1) is identical to the
// generic loop, so the EREW write pattern is unchanged.
func (a *arena[T]) tryRowsumsCol(fast FastOp, values []T, c, klo, khi int) bool {
	if fast == FastNone {
		return false
	}
	switch vs := any(values).(type) {
	case []int64:
		return rowsumsKernel(fast, a.grid.P, a.m, c, klo, khi, a.spine, asI64(a.rowsum), vs, a.isSpine)
	case []float64:
		return rowsumsKernel(fast, a.grid.P, a.m, c, klo, khi, a.spine, asF64(a.rowsum), vs, a.isSpine)
	}
	return false
}

//mp:hotpath
func rowsumsKernel[E fastElem](fast FastOp, gp, m, c, klo, khi int, spine []int32, rowsum, values []E, isSpine []bool) bool {
	switch fast {
	case FastAdd:
		for k := klo; k < khi; k++ {
			i := c + k*gp
			p := spine[m+i]
			rowsum[p] += values[i]
			if isSpine != nil {
				isSpine[p] = true
			}
		}
	case FastMax:
		for k := klo; k < khi; k++ {
			i := c + k*gp
			p := spine[m+i]
			v := values[i]
			if s := rowsum[p]; !(s > v) {
				rowsum[p] = v
			}
			if isSpine != nil {
				isSpine[p] = true
			}
		}
	default:
		return false
	}
	return true
}

// trySpinesumsRow runs the SPINESUMS phase over element range
// [ilo, ihi) of one row. The spine test is inlined: the marker array
// for SpineTestMarker, a direct identity comparison (equivalent to the
// built-in ops' IsIdentity) for SpineTestNonzero.
func (a *arena[T]) trySpinesumsRow(fast FastOp, op Op[T], test SpineTest, ilo, ihi int) bool {
	if fast == FastNone {
		return false
	}
	switch rs := any(a.rowsum).(type) {
	case []int64:
		id, _ := any(op.Identity).(int64)
		return spinesumsKernel(fast, test, id, a.m, ilo, ihi, a.spine, rs, asI64(a.spinesum), a.isSpine)
	case []float64:
		id, _ := any(op.Identity).(float64)
		return spinesumsKernel(fast, test, id, a.m, ilo, ihi, a.spine, rs, asF64(a.spinesum), a.isSpine)
	}
	return false
}

//mp:hotpath
func spinesumsKernel[E fastElem](fast FastOp, test SpineTest, ident E, m, ilo, ihi int, spine []int32, rowsum, spinesum []E, isSpine []bool) bool {
	if fast != FastAdd && fast != FastMax {
		return false
	}
	for i := ilo; i < ihi; i++ {
		idx := m + i
		if test == SpineTestMarker {
			if !isSpine[idx] {
				continue
			}
		} else if rowsum[idx] == ident {
			continue
		}
		p := spine[idx]
		if fast == FastAdd {
			spinesum[p] = spinesum[idx] + rowsum[idx]
		} else {
			if s, v := spinesum[idx], rowsum[idx]; s > v {
				spinesum[p] = s
			} else {
				spinesum[p] = v
			}
		}
	}
	return true
}

// tryMultisumsCol runs the MULTISUMS phase over column c, stride
// indices [klo, khi).
func (a *arena[T]) tryMultisumsCol(fast FastOp, values, multi []T, c, klo, khi int) bool {
	if fast == FastNone {
		return false
	}
	switch vs := any(values).(type) {
	case []int64:
		return multisumsKernel(fast, a.grid.P, a.m, c, klo, khi, a.spine, asI64(a.spinesum), vs, asI64(multi))
	case []float64:
		return multisumsKernel(fast, a.grid.P, a.m, c, klo, khi, a.spine, asF64(a.spinesum), vs, asF64(multi))
	}
	return false
}

//mp:hotpath
func multisumsKernel[E fastElem](fast FastOp, gp, m, c, klo, khi int, spine []int32, spinesum, values, multi []E) bool {
	switch fast {
	case FastAdd:
		for k := klo; k < khi; k++ {
			i := c + k*gp
			p := spine[m+i]
			s := spinesum[p]
			multi[i] = s
			spinesum[p] = s + values[i]
		}
	case FastMax:
		for k := klo; k < khi; k++ {
			i := c + k*gp
			p := spine[m+i]
			s := spinesum[p]
			multi[i] = s
			if v := values[i]; !(s > v) {
				spinesum[p] = v
			}
		}
	default:
		return false
	}
	return true
}

// tryReductions finalizes red[b] = spinesum[b] ⊕ rowsum[b] over the
// buckets with a monomorphic kernel.
func (a *arena[T]) tryReductions(fast FastOp, red []T) bool {
	if fast == FastNone {
		return false
	}
	switch rd := any(red).(type) {
	case []int64:
		return reduceKernel(fast, rd, asI64(a.spinesum), asI64(a.rowsum))
	case []float64:
		return reduceKernel(fast, rd, asF64(a.spinesum), asF64(a.rowsum))
	}
	return false
}

//mp:hotpath
func reduceKernel[E fastElem](fast FastOp, red, spinesum, rowsum []E) bool {
	switch fast {
	case FastAdd:
		for b := range red {
			red[b] = spinesum[b] + rowsum[b]
		}
	case FastMax:
		for b := range red {
			if s, v := spinesum[b], rowsum[b]; s > v {
				red[b] = s
			} else {
				red[b] = v
			}
		}
	default:
		return false
	}
	return true
}
