package backend

import (
	"errors"
	"math"
	"slices"
	"testing"

	"multiprefix/internal/core"
)

// mustSet32 prepares an int32 label vector over [0, m), which the set
// then owns, and fails t if it does not check.
func mustSet32(t testing.TB, labels []int32, m int) LabelSet {
	t.Helper()
	set, err := NewLabelSet(labels, m)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestLabelSetPaths: a plan built on an int32 label set and one built
// by Plan from the same values as []int are the same plan: the same
// labels, class count and cache key, on every plan-building path the
// service and the library take.
func TestLabelSetPaths(t *testing.T) {
	const n, m = 1 << 12, 64
	_, labels := trialInput(n, m)
	labels[0], labels[n-1] = 0, m-1
	narrow := make([]int32, n)
	distinct := map[int]bool{}
	for i, l := range labels {
		narrow[i] = int32(l)
		distinct[l] = true
	}
	cfg := core.Config{Workers: 2}
	for _, name := range []string{"auto", "serial", "chunked", "sorted", "sharded", "spinetree", "parallel", "vector", "pram"} {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := be.Plan(core.AddInt64, labels, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		set := mustSet32(t, slices.Clone(narrow), m)
		built := []*Plan[int64]{wide}
		if p, err := PlanSet(name, core.AddInt64, set, cfg); err != nil {
			t.Fatal(err)
		} else {
			built = append(built, p)
		}
		if name == "auto" {
			p, err := RulePlan(core.AddInt64, set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			built = append(built, p)
		}
		key := KeyFor(name, core.AddInt64.Name, labels, m)
		if set.Key(name, core.AddInt64.Name) != key || set.m != m || set.classes != len(distinct) {
			t.Fatalf("%s: set key %+v, m %d, %d classes; want %+v, %d, %d", name, set.Key(name, core.AddInt64.Name), set.m, set.classes, key, m, len(distinct))
		}
		for _, got := range []func() (Key, error){
			func() (Key, error) { return LabelKey(name, core.AddInt64.Name, labels, m) },
			func() (Key, error) { return LabelKey(name, core.AddInt64.Name, narrow, m) },
		} {
			if k, err := got(); err != nil || k != key {
				t.Fatalf("%s: LabelKey %+v, %v; want %+v", name, k, err, key)
			}
		}
		for _, p := range built {
			if !slices.Equal(p.Labels(), narrow) || p.Classes() != len(distinct) || p.N() != n || p.M() != m {
				t.Fatalf("%s: plan over %d labels, %d classes, m %d; want the labels, %d, %d", name, p.N(), p.Classes(), p.M(), len(distinct), m)
			}
			p.Close()
		}
	}
}

// TestLabelSetErrors: the []int and the int32 path refuse the same
// inputs with the same typed error and message, and LabelKey refuses
// them as NewLabelSet does. A label beyond int32
// has no int32 form; the []int path gives it the range error of any
// label at or past m, which is what the service answers when its int32
// parse refuses such a label and json.Unmarshal decodes the body.
func TestLabelSetErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels []int
		m      int
		want   string
	}{
		{"label < 0", []int{0, 1, 2, 3, -1, 2}, 4, "labels[4]=-1 outside [0, 4)"},
		{"label ≥ m", []int{0, 1, 2, 3, 3, 4}, 4, "labels[5]=4 outside [0, 4)"},
		{"label ≥ m in a group", []int{0, 9, 2, 3, 3, 4}, 4, "labels[1]=9 outside [0, 4)"},
		{"label > MaxInt32", []int{0, 1, math.MaxInt32 + 1}, 4, "labels[2]=2147483648 outside [0, 4)"},
		{"m > MaxInt32", []int{0, 1, 2}, math.MaxInt32 + 1, "m=2147483648 exceeds a plan's int32 label space"},
		{"label past m > MaxInt32", []int{0, math.MaxInt32 + 1, 2}, math.MaxInt32 + 1, "labels[1]=2147483648 outside [0, 2147483648)"},
		{"m < 0", []int{0}, -1, "m=-1 < 0"},
	} {
		want := core.ErrBadInput.Error() + ": " + tc.want
		be, err := Open[int64]("serial")
		if err != nil {
			t.Fatal(err)
		}
		_, wideErr := be.Plan(core.AddInt64, tc.labels, tc.m, core.Config{})
		_, setErr := NewLabelSet(tc.labels, tc.m)
		_, keyErr := LabelKey("serial", core.AddInt64.Name, tc.labels, tc.m)
		errs := []error{wideErr, setErr, keyErr}
		if narrow := slices.Clone(tc.labels); !slices.ContainsFunc(narrow, func(l int) bool { return l > math.MaxInt32 }) {
			l32 := make([]int32, len(narrow))
			for i, l := range narrow {
				l32[i] = int32(l)
			}
			_, err := NewLabelSet(l32, tc.m)
			_, keyErr := LabelKey("serial", core.AddInt64.Name, l32, tc.m)
			errs = append(errs, err, keyErr)
		}
		for _, err := range errs {
			if !errors.Is(err, core.ErrBadInput) || err.Error() != want {
				t.Errorf("%s: error %v, want %q wrapping ErrBadInput", tc.name, err, want)
			}
		}
	}
}
