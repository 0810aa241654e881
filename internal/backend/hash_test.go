package backend

import (
	"math/rand"
	"testing"
)

// TestPlanKey pins the cache-key contract: deterministic digests,
// sensitivity to every construction input, and stability of the
// comparable Key across identical inputs.
func TestPlanKey(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	labels := make([]int, 4096)
	for i := range labels {
		labels[i] = rng.Intn(64)
	}
	k1 := KeyFor("auto", "+int64", labels, 64)
	k2 := KeyFor("auto", "+int64", labels, 64)
	if k1 != k2 {
		t.Fatalf("identical inputs produced different keys: %v vs %v", k1, k2)
	}
	if k1.N != len(labels) || k1.M != 64 {
		t.Fatalf("key shape = (%d, %d), want (%d, 64)", k1.N, k1.M, len(labels))
	}
	// Each input dimension separates keys.
	if KeyFor("serial", "+int64", labels, 64) == k1 {
		t.Error("backend name not part of the key")
	}
	if KeyFor("auto", "max int64", labels, 64) == k1 {
		t.Error("op name not part of the key")
	}
	if KeyFor("auto", "+int64", labels, 128) == k1 {
		t.Error("m not part of the key")
	}
	if KeyFor("auto", "+int64", labels[:4095], 64) == k1 {
		t.Error("n not part of the key")
	}
	// A single-label perturbation must change the digest.
	mutated := append([]int(nil), labels...)
	mutated[1234]++
	if DigestLabels(mutated) == DigestLabels(labels) {
		t.Error("single-label mutation kept the digest")
	}
	// Order matters: a permutation of the same multiset digests
	// differently (the plan's structure depends on positions).
	swapped := append([]int(nil), labels...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if swapped[0] != swapped[1] && DigestLabels(swapped) == DigestLabels(labels) {
		t.Error("transposition kept the digest")
	}
	// Spot-check spread: distinct random vectors should essentially
	// never collide on 64 bits.
	seen := map[uint64][]int{}
	for trial := 0; trial < 200; trial++ {
		l := make([]int, 257)
		for i := range l {
			l[i] = rng.Intn(32)
		}
		d := DigestLabels(l)
		if prev, ok := seen[d]; ok && !equalInts(prev, l) {
			t.Fatalf("digest collision between distinct vectors")
		}
		seen[d] = l
	}
}

// TestDigestGolden pins DigestLabels' values, so that a digest computed
// on one platform or run names the same vector on every other.
func TestDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		labels []int
		want   uint64
	}{
		{nil, 0xbd0ed0d08a42a70c},
		{[]int{0}, 0xdb3450160234360b},
		{[]int{0, 1, 2, 3, 1 << 30}, 0x6f7ea786cbf01dc4},
	} {
		if got := DigestLabels(tc.labels); got != tc.want {
			t.Errorf("DigestLabels(%v) = %#x, want %#x", tc.labels, got, tc.want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
