package backend

import (
	"math"
	"math/rand"
	"slices"
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
// on one platform or run names the same vector on every other. Nothing
// persists a digest (the -warm file stores labels), so a change of the
// function only re-pins these.
func TestDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		labels []int
		want   uint64
	}{
		{nil, 0x10a495d3ffb50e04},
		{[]int{0}, 0x7d2c9e31c68f989a},
		{[]int{0, 1, 2, 3, 1 << 30}, 0xdc4eecf66db632f8},
	} {
		if got := DigestLabels(tc.labels); got != tc.want {
			t.Errorf("DigestLabels(%v) = %#x, want %#x", tc.labels, got, tc.want)
		}
	}
}

// TestDigestLabelTypes: a []int and a []int32 vector of the same values
// digest alike, through DigestLabels, KeyFor and a LabelSet's Key, at
// every length around the four lanes.
func TestDigestLabelTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := range 40 {
		wide, narrow := make([]int, n), make([]int32, n)
		for i := range wide {
			wide[i] = rng.Intn(1 << 20)
			narrow[i] = int32(wide[i])
		}
		d := DigestLabels(wide)
		if got := DigestLabels(narrow); got != d {
			t.Fatalf("n=%d: []int32 digests %#x, []int %#x", n, got, d)
		}
		k := KeyFor("auto", "+int64", wide, 1<<20)
		if KeyFor("auto", "+int64", narrow, 1<<20) != k {
			t.Fatalf("n=%d: KeyFor differs between []int and []int32", n)
		}
		for _, set := range []LabelSet{mustSet(t, wide, 1<<20), mustSet32(t, slices.Clone(narrow), 1<<20)} {
			if set.Key("auto", "+int64") != k {
				t.Fatalf("n=%d: LabelSet.Key %+v, KeyFor %+v", n, set.Key("auto", "+int64"), k)
			}
		}
	}
}

// TestDigestOneLabel: changing any one label changes the digest, at
// every position of vectors whose lengths end on each lane, to values
// near and far from the old one.
func TestDigestOneLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 66, 67} {
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(rng.Intn(256))
		}
		d := DigestLabels(labels)
		for i := range labels {
			old := labels[i]
			for _, v := range []int32{old + 1, old - 1, old ^ 1<<30, 0, 255, math.MaxInt32, -1} {
				if v == old {
					continue
				}
				labels[i] = v
				if DigestLabels(labels) == d {
					t.Fatalf("n=%d: label %d (lane %d) from %d to %d kept the digest", n, i, i%4, old, v)
				}
			}
			labels[i] = old
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
