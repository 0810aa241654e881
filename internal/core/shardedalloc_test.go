package core

import (
	"math/rand"
	"testing"
)

// TestShardedKernelZeroAllocs pins the warm steady state of the
// sorted engine's kernels — the reduce-only pass-1 scan, the carry
// exchange and the seeded rescan — at zero heap allocations (for
// ShardedExchangeRound, the dynamic half of its //mp:hotpath
// contract). All plan-shaped storage (per-shard index rows, the flat
// S×m carry buffers, the seed row) is built once outside the measured
// region, exactly as a sharded backend Plan holds it.
func TestShardedKernelZeroAllocs(t *testing.T) {
	const n, m, shards = 1 << 13, 128, 4
	rng := rand.New(rand.NewSource(53))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	perm := make([]int32, n)
	starts := make([][]int32, shards)
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		starts[s] = make([]int32, m+1)
		BuildShardedIndexInto(perm, starts[s], labels, lo, hi)
	}
	curBuf := make([]int64, shards*m)
	nextBuf := make([]int64, shards*m)
	multi := make([]int64, n)
	seed := make([]int64, m)
	rounds := ShardedRounds(shards)

	for _, op := range []Op[int64]{AddInt64, MaxInt64} {
		pass1 := func() {
			for s := 0; s < shards; s++ {
				if !SortedScanLabels(op, op.Fast, values, perm, starts[s], nil, curBuf[s*m:(s+1)*m], 0, m, nil, nil) {
					t.Fatal("pass-1 scan stopped unexpectedly")
				}
			}
		}
		pass1()
		exchange := func() {
			cur, next := curBuf, nextBuf
			for r := 0; r < rounds; r++ {
				for s := 0; s < shards; s++ {
					ShardedExchangeRound(op, op.Fast, cur, next, m, s, 1<<r, nil)
				}
				cur, next = next, cur
			}
		}
		seedScan := func() {
			for s := 0; s < shards; s++ {
				copy(seed, curBuf[:m])
				if !ShardedSeedScan(op, op.Fast, values, perm, starts[s], multi, seed, nil, nil) {
					t.Fatal("seed scan stopped unexpectedly")
				}
			}
		}
		exchange()
		seedScan() // warm: nothing to build, but keep the plan tests' shape
		if allocs := testing.AllocsPerRun(5, pass1); allocs != 0 {
			t.Errorf("%s: SortedScanLabels %.1f allocs/run, want 0", op.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(5, exchange); allocs != 0 {
			t.Errorf("%s: ShardedExchangeRound %.1f allocs/run, want 0", op.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(5, seedScan); allocs != 0 {
			t.Errorf("%s: ShardedSeedScan %.1f allocs/run, want 0", op.Name, allocs)
		}
	}
}
