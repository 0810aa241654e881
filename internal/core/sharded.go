package core

import "math/bits"

// This file holds the core kernels of the parallel sorted engine — the
// body every sorted plan with more than one worker and every sharded
// plan runs: the input vector is partitioned across S shards by
// contiguous original-index range, each shard runs the sorted/tiled
// segmented scan over its own range, and the per-shard carries are
// combined in an exclusive-prefix carry exchange in the style of
// Träff's computation-efficient MPI_Exscan schemes:
//
//   pass 1 (scan)      each shard counting-sorts its own element range
//                      at plan time (BuildShardedIndexInto) and at run
//                      time scans its runs reduce-only, producing a
//                      per-shard, per-label totals row — the carry
//                      vector it would send to its right neighbors.
//   exchange (rounds)  ⌈log₂S⌉ synchronous Hillis–Steele rounds over
//                      the S carry rows: in round r (distance d = 2^r)
//                      shard s replaces its row with row[s−d] ⊕ row[s]
//                      (rows below d copy through). After the rounds,
//                      row s holds the inclusive fold of shards 0..s,
//                      so shard s's exclusive carry-in is row s−1 and
//                      the per-label reductions are row S−1.
//   pass 2 (apply)     multi runs only: each shard rescans its runs
//                      with the carry-in as the starting accumulator
//                      (a seeded rescan, never an offset fix-up, so
//                      the combine sequence each element observes is
//                      exactly Definition 1's).
//
// Order is never commuted anywhere: the left operand of every exchange
// combine covers strictly earlier shards (strictly earlier vector
// positions), and within a shard the stable sort keeps same-label
// elements in vector order. For associative operators the result is
// therefore exactly the serial one — including non-commutative ops
// like string concatenation. The one caveat is float64 addition, which
// is only approximately associative: the exchange tree folds the same
// operands in the same order but with a different parenthesization
// than the serial left fold, so float64 sums are exact (bit-identical)
// on the integer-valued envelope the repo's tests use and within
// rounding otherwise — the same honesty contract as the chunked
// engine's offset apply (DESIGN.md §15).

// BuildShardedIndexInto fills perm[lo:hi] with the stable counting
// sort of the elements in original-index range [lo, hi) and start
// (len m+1) with the run bounds as *global* perm positions: label l's
// local elements are perm[start[l]:start[l+1]], in vector order, and
// start[m] == hi. It is BuildSortedIndexInto restricted to a shard's
// range, so per-shard indexes share one full-length permutation and
// the sorted/tiled kernels (which index perm globally) run unchanged
// on a shard's rows.
func BuildShardedIndexInto(perm, start []int32, labels []int, lo, hi int) {
	m := len(start) - 1
	clear(start)
	for _, l := range labels[lo:hi] {
		start[l]++
	}
	sum := int32(lo)
	for l := 0; l < m; l++ {
		sum += start[l]
		start[l] = sum // end of run l
	}
	start[m] = sum // == hi
	for i := hi - 1; i >= lo; i-- {
		l := labels[i]
		start[l]--
		perm[start[l]] = int32(i)
	}
}

// ShardedRounds is the exchange round count for s shards: ⌈log₂s⌉
// (0 for a single shard, which needs no exchange).
func ShardedRounds(s int) int {
	if s <= 1 {
		return 0
	}
	return bits.Len(uint(s - 1))
}

// exchangeBits is the int64-only row combine of the bitwise families;
// see segKernelBits for why it cannot be generic.
func exchangeBits(fast FastOp, left, right, dst []int64) {
	switch fast {
	case FastAnd:
		for l := range dst {
			dst[l] = left[l] & right[l]
		}
	case FastOr:
		for l := range dst {
			dst[l] = left[l] | right[l]
		}
	case FastXor:
		for l := range dst {
			dst[l] = left[l] ^ right[l]
		}
	}
}

// exchangeKernel combines two carry rows element-wise into dst:
// dst[l] = left[l] ⊕ right[l], with the left operand covering the
// earlier shards (order preservation).
//
//mp:hotpath
func exchangeKernel[E fastElem](fast FastOp, left, right, dst []E) {
	switch fast {
	case FastAdd:
		for l := range dst {
			dst[l] = left[l] + right[l]
		}
	case FastMax:
		for l := range dst {
			if x, v := left[l], right[l]; x > v {
				dst[l] = x
			} else {
				dst[l] = v
			}
		}
	case FastMin:
		for l := range dst {
			if x, v := left[l], right[l]; x < v {
				dst[l] = x
			} else {
				dst[l] = v
			}
		}
	default:
		lb, rb, db := asI64(left), asI64(right), asI64(dst)
		if db != nil {
			exchangeBits(fast, lb, rb, db)
		}
	}
}

// ShardedExchangeRound computes shard s's row of exchange round with
// distance d: rows are m-length windows of the flat S×m buffers cur
// (this round's input) and next (its output). Shards below the
// distance copy their row through; the rest combine the row d to their
// left into their own. Each worker writes only its own next row, so a
// round is one EREW step — the caller provides the barrier between
// rounds.
//
//mp:hotpath
func ShardedExchangeRound[T any](op Op[T], fast FastOp, cur, next []T, m, s, d int, hook FaultHook) {
	dst := next[s*m : (s+1)*m]
	src := cur[s*m : (s+1)*m]
	if s < d {
		copy(dst, src)
		return
	}
	left := cur[(s-d)*m : (s-d+1)*m]
	switch any(cur).(type) {
	case []int64:
		if fastSegI64(fast) {
			exchangeKernel(fast, asI64(left), asI64(src), asI64(dst))
			return
		}
	case []float64:
		if fastSegF64(fast) {
			exchangeKernel(fast, asF64(left), asF64(src), asF64(dst))
			return
		}
	}
	for l := 0; l < m; l++ {
		if hook != nil {
			hook.Combine(PhaseShardedExchange, l)
		}
		dst[l] = op.Combine(left[l], src[l])
	}
}

// shardedSeedKernel is the monomorphic pass 2 over one shard: rescan
// every local run with carry[l] as the starting accumulator, writing
// prefixes into multi. carry is read-only here.
func shardedSeedKernel[E fastElem](fast FastOp, values []E, perm, start []int32, multi, carry []E, stop func() bool) bool {
	credit := cancelStride
	for l := 0; l < len(start)-1; l++ {
		s, e := int(start[l]), int(start[l+1])
		if s == e {
			continue
		}
		if _, ok := sortedSegScan(fast, values, perm, multi, s, e, carry[l], stop, &credit); !ok {
			return false
		}
	}
	return true
}

// ShardedSeedScan is pass 2 of the sharded engine over one shard's
// index rows: a full rescan of the shard's runs seeded per label from
// carry — the shard's exclusive carry-in row. Prefixes land in multi
// through perm; run totals are not recomputed (the exchange already
// produced the reductions). stop follows the SortedScanLabels
// contract.
func ShardedSeedScan[T any](op Op[T], fast FastOp, values []T, perm, start []int32, multi, carry []T, hook FaultHook, stop func() bool) bool {
	switch vs := any(values).(type) {
	case []int64:
		if fastSegI64(fast) {
			return shardedSeedKernel(fast, vs, perm, start, asI64(multi), asI64(carry), stop)
		}
	case []float64:
		if fastSegF64(fast) {
			return shardedSeedKernel(fast, vs, perm, start, asF64(multi), asF64(carry), stop)
		}
	}
	credit := cancelStride
	for l := 0; l < len(start)-1; l++ {
		s, e := int(start[l]), int(start[l+1])
		if s == e {
			continue
		}
		if _, ok := sortedSegGeneric(op, PhaseShardedApply, values, perm, multi, s, e, carry[l], hook, stop, &credit); !ok {
			return false
		}
	}
	return true
}

// ShardedTiledSeedScan is the cache-tiled pass 2: the same seeded
// rescan with the shard's traffic re-ordered tile-major by ts. The
// accumulators thread through the scratch row across tiles, so scratch
// must be pre-seeded with the shard's carry-in and is clobbered by the
// call (each worker owns its scratch row, keeping the pass EREW).
// Non-monomorphic shapes fall through to the untiled seeded scan.
//
//mp:hotpath
func ShardedTiledSeedScan[T any](op Op[T], fast FastOp, values []T, perm, start []int32, multi, scratch []T, ts *TileSegs, hook FaultHook, stop func() bool) bool {
	switch vs := any(values).(type) {
	case []int64:
		if fastSegI64(fast) {
			return tiledTilesKernel(fast, vs, perm, asI64(multi), asI64(scratch), ts, stop)
		}
	case []float64:
		if fastSegF64(fast) {
			return tiledTilesKernel(fast, vs, perm, asF64(multi), asF64(scratch), ts, stop)
		}
	}
	return ShardedSeedScan(op, fast, values, perm, start, multi, scratch, hook, stop)
}
