package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"multiprefix/internal/par"
)

// narrowLabels is the int32 copy of labels a backend plan keeps.
func narrowLabels(labels []int) []int32 {
	out := make([]int32, len(labels))
	for i, l := range labels {
		out[i] = int32(l)
	}
	return out
}

// TestLabelWidthParity runs every engine piece that takes the label
// element as a type parameter over one label vector in both widths:
// int (one-shot calls) and int32 (a plan's copy) must give bit-identical
// results, on the fast kernels and on the generic, hook-observing path.
func TestLabelWidthParity(t *testing.T) {
	const n, m = 5000, 37
	rng := rand.New(rand.NewSource(7))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(200)) - 100
		labels[i] = rng.Intn(m)
	}
	labels32 := narrowLabels(labels)
	want, err := Serial(AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, res Result[int64]) {
		t.Helper()
		if !reflect.DeepEqual(res.Multi, want.Multi) || !reflect.DeepEqual(res.Reductions, want.Reductions) {
			t.Errorf("%s: int32 labels diverge from the serial reference", name)
		}
	}
	for _, op := range []Op[int64]{AddInt64, genericAddInt64} {
		multi, red := make([]int64, n), make([]int64, m)
		FillIdentity(op, red)
		if err := SerialSegments(op, values, labels32, multi, red, context.Background()); err != nil {
			t.Fatal(err)
		}
		check(op.Name+"/serial", Result[int64]{Multi: multi, Reductions: red})

		team := par.NewTeam(3)
		r := NewChunkRunner[int64, int32]("chunked")
		r.Plan(team, op, labels32, m)
		multi, red = make([]int64, n), make([]int64, m)
		if err := r.Run(team, values, multi, red, Config{}); err != nil {
			t.Fatal(err)
		}
		team.Close()
		check(op.Name+"/chunked", Result[int64]{Multi: multi, Reductions: red})

		b := new(Buffers[int64])
		res, err := SpinetreeIn(b, op, values, labels32, m, Config{IndirectInit: true})
		if err != nil {
			t.Fatal(err)
		}
		check(op.Name+"/spinetree", res)
		for _, arb := range []bool{false, true} {
			res, err := ParallelIn(b, op, values, labels32, m, Config{Workers: 3, MutexArb: arb})
			if err != nil {
				t.Fatal(err)
			}
			check(op.Name+"/parallel", res)
		}
	}
	perm, start := make([]int32, n), make([]int32, m+1)
	perm32, start32 := make([]int32, n), make([]int32, m+1)
	BuildSortedIndexInto(perm, start, labels)
	BuildSortedIndexInto(perm32, start32, labels32)
	if !reflect.DeepEqual(perm, perm32) || !reflect.DeepEqual(start, start32) {
		t.Error("sorted index: int32 labels diverge")
	}
	BuildShardedIndexInto(perm, start, labels, 1000, 3000)
	BuildShardedIndexInto(perm32, start32, labels32, 1000, 3000)
	if !reflect.DeepEqual(perm, perm32) || !reflect.DeepEqual(start, start32) {
		t.Error("sharded index: int32 labels diverge")
	}
}
