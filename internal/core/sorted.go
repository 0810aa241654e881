package core

import "math"

// This file is the sorted segmented-scan engine: the NAS IS treatment
// of §6 turned into a reusable execution strategy. A stable counting
// sort of the labels yields a permutation under which each label's
// elements form one contiguous run; the multiprefix then degenerates
// to a segmented scan — sequential reads over the runs instead of the
// bucket algorithm's scattered per-label accumulator traffic — and the
// per-label reductions fall out as the run totals. Because the sort
// depends only on the labels, it belongs at plan time (the §5.2.1
// setup/evaluation split); the one-shot engine here rebuilds it per
// call and is the reference the planned paths must match.
//
// Stability is what preserves the paper's semantics: a stable sort
// keeps same-label elements in vector order, so the running combine
// along a run visits exactly the "earlier elements of the same class"
// of Definition 1, in order, and the scan's prefix values equal the
// bucket algorithm's bit for bit (same combine order, not just the
// same multiset).

// SortedIndex is the plan-time structure of the sorted engine: the
// stable counting-sort permutation and the per-label run bounds.
type SortedIndex struct {
	// Perm maps sorted position to original vector index: label l's
	// elements are Perm[Start[l]:Start[l+1]], in vector order.
	Perm []int32
	// Start has length m+1: Start[l] is the first sorted position of
	// label l's run and Start[m] == n.
	Start []int32
}

// maxSortedN is the largest element count the int32 permutation can
// address. Inputs beyond it (8 GiB of labels) take the other engines.
const maxSortedN = math.MaxInt32

// BuildSortedIndex counting-sorts labels (already validated against m)
// into a fresh SortedIndex.
func BuildSortedIndex(labels []int, m int) (SortedIndex, error) {
	if len(labels) > maxSortedN {
		return SortedIndex{}, wrapBadInput("n=%d exceeds the sorted engine's %d-element limit", len(labels), maxSortedN)
	}
	idx := SortedIndex{
		Perm:  make([]int32, len(labels)),
		Start: make([]int32, m+1),
	}
	BuildSortedIndexInto(idx.Perm, idx.Start, labels)
	return idx, nil
}

// BuildSortedIndexInto fills perm (len n) and start (len m+1) with the
// stable counting sort of labels, allocation-free. Labels must already
// be validated against m = len(start)-1 and n must fit int32.
//
// The placement pass walks the input backwards with the run-end
// cursors stored in start itself, so no separate cursor array is
// needed; decrementing end cursors while iterating backwards assigns
// the last occurrence the last slot, which is exactly stability.
func BuildSortedIndexInto(perm, start []int32, labels []int) {
	m := len(start) - 1
	clear(start)
	for _, l := range labels {
		start[l]++
	}
	var sum int32
	for l := 0; l < m; l++ {
		sum += start[l]
		start[l] = sum // end of run l
	}
	start[m] = sum // == n
	for i := len(labels) - 1; i >= 0; i-- {
		l := labels[i]
		start[l]--
		perm[start[l]] = int32(i)
	}
	// start[l] has been decremented back to the begin of run l.
}

// fastIdent is the identity the monomorphic kernels scan from: 0 for
// FastAdd/FastOr/FastXor, the type extremes for FastMax/FastMin, all
// ones for FastAnd — by the FastOp contract these equal the operator's
// declared Identity.
func fastIdent[E fastElem](fast FastOp) E {
	var id E
	switch fast {
	case FastMax:
		switch p := any(&id).(type) {
		case *int64:
			*p = math.MinInt64
		case *float64:
			*p = math.Inf(-1)
		}
	case FastMin:
		switch p := any(&id).(type) {
		case *int64:
			*p = math.MaxInt64
		case *float64:
			*p = math.Inf(1)
		}
	case FastAnd:
		if p, ok := any(&id).(*int64); ok {
			*p = -1
		}
	}
	return id
}

// segKernelBits is the int64-only innermost loop of the bitwise
// families. float64 has no bitwise operators, so unlike the other
// kernels this one cannot be generic over fastElem; the generic
// kernels bridge to it through segKernelBitsOf.
func segKernelBits(fast FastOp, values []int64, perm []int32, multi []int64, s, e int, acc int64) int64 {
	switch {
	case fast == FastAnd && multi == nil:
		for _, p := range perm[s:e] {
			acc &= values[p]
		}
	case fast == FastAnd:
		for _, p := range perm[s:e] {
			multi[p] = acc
			acc &= values[p]
		}
	case fast == FastOr && multi == nil:
		for _, p := range perm[s:e] {
			acc |= values[p]
		}
	case fast == FastOr:
		for _, p := range perm[s:e] {
			multi[p] = acc
			acc |= values[p]
		}
	case fast == FastXor && multi == nil:
		for _, p := range perm[s:e] {
			acc ^= values[p]
		}
	case fast == FastXor:
		for _, p := range perm[s:e] {
			multi[p] = acc
			acc ^= values[p]
		}
	}
	return acc
}

// segKernelBitsOf routes a generic segment scan into segKernelBits.
// The dispatch gates admit the bitwise families only at []int64, so
// the float64 instantiation is unreachable; it returns acc unchanged
// rather than panicking so a gating mistake stays visible as a parity
// failure, not a crash.
func segKernelBitsOf[E fastElem](fast FastOp, values []E, perm []int32, multi []E, s, e int, acc E) E {
	vs := asI64(values)
	if vs == nil {
		return acc
	}
	ai, _ := any(acc).(int64)
	out, _ := any(segKernelBits(fast, vs, perm, asI64(multi), s, e, ai)).(E)
	return out
}

// sortedSegKernel is the innermost monomorphic loop: scan sorted
// positions [s, e) of one run, threading acc. multi may be nil
// (reduce-only).
func sortedSegKernel[E fastElem](fast FastOp, values []E, perm []int32, multi []E, s, e int, acc E) E {
	switch {
	case fast == FastAdd && multi == nil:
		for _, p := range perm[s:e] {
			acc += values[p]
		}
	case fast == FastAdd:
		for _, p := range perm[s:e] {
			multi[p] = acc
			acc += values[p]
		}
	case fast == FastMax && multi == nil:
		for _, p := range perm[s:e] {
			if v := values[p]; !(acc > v) {
				acc = v
			}
		}
	case fast == FastMax:
		for _, p := range perm[s:e] {
			multi[p] = acc
			if v := values[p]; !(acc > v) {
				acc = v
			}
		}
	case fast == FastMin && multi == nil:
		for _, p := range perm[s:e] {
			if v := values[p]; !(acc < v) {
				acc = v
			}
		}
	case fast == FastMin:
		for _, p := range perm[s:e] {
			multi[p] = acc
			if v := values[p]; !(acc < v) {
				acc = v
			}
		}
	default:
		acc = segKernelBitsOf(fast, values, perm, multi, s, e, acc)
	}
	return acc
}

// sortedSegScan runs sortedSegKernel over [s, e) in windows, polling
// stop whenever the shared credit counter is exhausted (roughly every
// CancelStride elements across runs). A false return means the scan
// was aborted and the output is partial.
func sortedSegScan[E fastElem](fast FastOp, values []E, perm []int32, multi []E, s, e int, acc E, stop func() bool, credit *int) (E, bool) {
	for {
		if *credit <= 0 {
			if stop != nil && stop() {
				return acc, false
			}
			*credit = cancelStride
		}
		w := min(e, s+*credit)
		acc = sortedSegKernel(fast, values, perm, multi, s, w, acc)
		*credit -= w - s
		if w >= e {
			return acc, true
		}
		s = w
	}
}

// sortedScanLabelsKernel is the monomorphic fused scan over the runs
// of labels [l0, l1): prefixes into multi (through perm), run totals
// into red.
func sortedScanLabelsKernel[E fastElem](fast FastOp, values []E, perm, start []int32, multi, red []E, l0, l1 int, stop func() bool) bool {
	ident := fastIdent[E](fast)
	credit := cancelStride
	for l := l0; l < l1; l++ {
		acc, ok := sortedSegScan(fast, values, perm, multi, int(start[l]), int(start[l+1]), ident, stop, &credit)
		if !ok {
			return false
		}
		red[l] = acc
	}
	return true
}

// sortedSegGeneric is the generic counterpart of sortedSegScan: one
// run segment with per-combine hook events (vector-index attributed,
// like BucketRange) and stop polling.
func sortedSegGeneric[T any](op Op[T], phase string, values []T, perm []int32, multi []T, s, e int, acc T, hook FaultHook, stop func() bool, credit *int) (T, bool) {
	for i := s; i < e; i++ {
		if *credit <= 0 {
			if stop != nil && stop() {
				return acc, false
			}
			*credit = cancelStride
		}
		*credit--
		p := perm[i]
		if multi != nil {
			multi[p] = acc
		}
		if hook != nil {
			hook.Combine(phase, int(p))
		}
		acc = op.Combine(acc, values[p])
	}
	return acc, true
}

// SortedScanLabels runs the fused segmented scan over the runs of
// labels [l0, l1): multi[perm[i]] receives the running combine of the
// run's earlier elements (nil multi for reduce-only), red[l] the run
// total (the identity for empty runs). fast should be
// op.FastKind(hook). stop, when non-nil, is polled roughly every
// CancelStride elements; a true return aborts the scan (the caller
// discards the partial output) and SortedScanLabels reports false.
func SortedScanLabels[T any](op Op[T], fast FastOp, values []T, perm, start []int32, multi, red []T, l0, l1 int, hook FaultHook, stop func() bool) bool {
	switch vs := any(values).(type) {
	case []int64:
		if fastSegI64(fast) {
			return sortedScanLabelsKernel(fast, vs, perm, start, asI64(multi), asI64(red), l0, l1, stop)
		}
	case []float64:
		if fastSegF64(fast) {
			return sortedScanLabelsKernel(fast, vs, perm, start, asF64(multi), asF64(red), l0, l1, stop)
		}
	}
	credit := cancelStride
	for l := l0; l < l1; l++ {
		acc, ok := sortedSegGeneric(op, PhaseSortedScan, values, perm, multi, int(start[l]), int(start[l+1]), op.Identity, hook, stop, &credit)
		if !ok {
			return false
		}
		red[l] = acc
	}
	return true
}

// ctxStop adapts a context to the kernels' stop callback; nil context
// means no polling (and no closure).
func ctxStop(cfg Config) func() bool {
	if cfg.Ctx == nil {
		return nil
	}
	ctx := cfg.Ctx
	return func() bool { return ctx.Err() != nil }
}

// Sorted runs the multiprefix through the sorted segmented-scan
// engine: counting-sort the labels, scan the contiguous runs, with
// prefixes scattered back through the permutation. The one-shot form
// is serial (the sort is rebuilt per call) and is the parity reference
// for the parallel form: the backend Plan pipeline's sharded
// decomposition (sharded.go), whose per-shard sorts are plan-time
// structures.
func Sorted[T any](op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	idx, err := BuildSortedIndex(labels, m)
	if err != nil {
		return Result[T]{}, err
	}
	phase := PhaseSortedScan
	defer recoverEnginePanic("sorted", &phase, &err)
	multi := make([]T, len(values))
	red := make([]T, m)
	fast := op.fastKind(cfg.FaultHook)
	if !SortedScanLabels(op, fast, values, idx.Perm, idx.Start, multi, red, 0, m, cfg.FaultHook, ctxStop(cfg)) {
		return Result[T]{}, cfg.Ctx.Err()
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// SortedReduce is the reductions-only multireduce through the sorted
// engine.
func SortedReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	idx, err := BuildSortedIndex(labels, m)
	if err != nil {
		return nil, err
	}
	phase := PhaseSortedScan
	defer recoverEnginePanic("sorted", &phase, &err)
	red := make([]T, m)
	fast := op.fastKind(cfg.FaultHook)
	if !SortedScanLabels(op, fast, values, idx.Perm, idx.Start, nil, red, 0, m, cfg.FaultHook, ctxStop(cfg)) {
		return nil, cfg.Ctx.Err()
	}
	return red, nil
}

// Sorted is Sorted drawing the permutation, run bounds and result
// storage from b — allocation-free in steady state.
func (b *Buffers[T]) Sorted(op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	if len(values) > maxSortedN {
		return Result[T]{}, wrapBadInput("n=%d exceeds the sorted engine's %d-element limit", len(values), maxSortedN)
	}
	perm, start := b.growSortedIndex(len(values), m)
	BuildSortedIndexInto(perm, start, labels)
	phase := PhaseSortedScan
	defer recoverEnginePanic("sorted", &phase, &err)
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	fast := op.fastKind(cfg.FaultHook)
	if !SortedScanLabels(op, fast, values, perm, start, multi, red, 0, m, cfg.FaultHook, ctxStop(cfg)) {
		return Result[T]{}, cfg.Ctx.Err()
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// SortedReduce is SortedReduce on pooled state.
func (b *Buffers[T]) SortedReduce(op Op[T], values []T, labels []int, m int, cfg Config) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	if len(values) > maxSortedN {
		return nil, wrapBadInput("n=%d exceeds the sorted engine's %d-element limit", len(values), maxSortedN)
	}
	perm, start := b.growSortedIndex(len(values), m)
	BuildSortedIndexInto(perm, start, labels)
	phase := PhaseSortedScan
	defer recoverEnginePanic("sorted", &phase, &err)
	red := b.growRed(m)
	fast := op.fastKind(cfg.FaultHook)
	if !SortedScanLabels(op, fast, values, perm, start, nil, red, 0, m, cfg.FaultHook, ctxStop(cfg)) {
		return nil, cfg.Ctx.Err()
	}
	return red, nil
}
