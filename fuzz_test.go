package multiprefix

// Native Go fuzz targets. `go test` runs the seed corpus; run
// `go test -fuzz=FuzzEnginesAgree` for open-ended fuzzing.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
	"multiprefix/internal/intsort"
)

// decodeInput derives (values, labels, m) from raw fuzz bytes.
func decodeInput(data []byte) (values []int64, labels []int, m int) {
	if len(data) < 2 {
		return nil, nil, 1
	}
	m = int(data[0])%37 + 1
	data = data[1:]
	for len(data) >= 3 {
		labels = append(labels, int(data[0])%m)
		values = append(values, int64(int16(binary.LittleEndian.Uint16(data[1:3]))))
		data = data[3:]
	}
	return values, labels, m
}

func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 3, 255, 127, 2, 9, 9})
	f.Add([]byte{1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{7, 3, 3, 3}, 50))
	f.Fuzz(func(t *testing.T, data []byte) {
		values, labels, m := decodeInput(data)
		want, err := core.Serial(AddInt64, values, labels, m)
		if err != nil {
			t.Fatalf("serial rejected derived input: %v", err)
		}
		st, err := core.Spinetree(AddInt64, values, labels, m, Config{RowLength: len(values)%7 + 1})
		if err != nil {
			t.Fatal(err)
		}
		ck, err := core.Chunked(AddInt64, values, labels, m, Config{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Multi {
			if st.Multi[i] != want.Multi[i] {
				t.Fatalf("spinetree Multi[%d] = %d, want %d", i, st.Multi[i], want.Multi[i])
			}
			if ck.Multi[i] != want.Multi[i] {
				t.Fatalf("chunked Multi[%d] = %d, want %d", i, ck.Multi[i], want.Multi[i])
			}
		}
		for k := range want.Reductions {
			if st.Reductions[k] != want.Reductions[k] || ck.Reductions[k] != want.Reductions[k] {
				t.Fatalf("reductions disagree at %d", k)
			}
		}
	})
}

// FuzzAutoMatchesSerial drives the adaptive engine through every
// branch (AutoCal overrides force serial or chunked on the same
// input) and checks agreement with the serial reference — under clean
// runs, under an injected mid-run panic (the Fallback must degrade to
// serial and still produce the right answer), and under a
// pre-cancelled context (which must surface context.Canceled from
// every branch, never a wrong result).
func FuzzAutoMatchesSerial(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 3, 255, 127, 2, 9, 9}, int64(1))
	f.Add([]byte{1, 1, 1, 1}, int64(7))
	f.Add(bytes.Repeat([]byte{7, 3, 3, 3}, 50), int64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		values, labels, m := decodeInput(data)
		want, err := core.Serial(AddInt64, values, labels, m)
		if err != nil {
			t.Fatalf("serial rejected derived input: %v", err)
		}
		branches := []Config{
			{Workers: 1, AutoCal: &AutoCalibration{SerialMax: 1 << 20}},
			{Workers: 4, AutoCal: &AutoCalibration{SerialMax: int(seed&7) - 1}},
		}
		check := func(name string, got Result[int64]) {
			t.Helper()
			for i := range want.Multi {
				if got.Multi[i] != want.Multi[i] {
					t.Fatalf("%s: Multi[%d] = %d, want %d", name, i, got.Multi[i], want.Multi[i])
				}
			}
			for k := range want.Reductions {
				if got.Reductions[k] != want.Reductions[k] {
					t.Fatalf("%s: Reductions[%d] = %d, want %d", name, k, got.Reductions[k], want.Reductions[k])
				}
			}
		}
		for _, cfg := range branches {
			name := AutoChoice(len(values), m, cfg)
			got, err := Auto(AddInt64, values, labels, m, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, got)
			red, err := AutoReduce(AddInt64, values, labels, m, cfg)
			if err != nil {
				t.Fatalf("%s reduce: %v", name, err)
			}
			for k := range want.Reductions {
				if red[k] != want.Reductions[k] {
					t.Fatalf("%s: red[%d] = %d, want %d", name, k, red[k], want.Reductions[k])
				}
			}

			// Injected panic in one combine: the Fallback machinery
			// retries through the (hook-free) serial reference, so the
			// caller still sees the right answer.
			faulty := cfg
			faulty.FaultHook = fault.Seeded(seed, len(values), "")
			got, err = Auto(AddInt64, values, labels, m, faulty)
			if err != nil {
				t.Fatalf("%s faulty: %v", name, err)
			}
			check(name+"/faulty", got)

			// Pre-cancelled context: context.Canceled from every
			// branch, never a silently-wrong result.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cancelled := cfg
			cancelled.Ctx = ctx
			if _, err := Auto(AddInt64, values, labels, m, cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled: err = %v, want context.Canceled", name, err)
			}
			if _, err := AutoReduce(AddInt64, values, labels, m, cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled reduce: err = %v, want context.Canceled", name, err)
			}
		}
	})
}

// FuzzBackendParity drives every registered backend — including the
// simulated vector machine and PRAM — against the serial reference,
// both through the one-shot Compute and through a Plan built once and
// evaluated against two value vectors (the second run exercises the
// in-place reuse of plan-owned result storage).
func FuzzBackendParity(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 3, 255, 127, 2, 9, 9})
	f.Add([]byte{1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{7, 3, 3, 3}, 50))
	f.Fuzz(func(t *testing.T, data []byte) {
		values, labels, m := decodeInput(data)
		check := func(name string, got Result[int64], want Result[int64]) {
			t.Helper()
			for i := range want.Multi {
				if got.Multi[i] != want.Multi[i] {
					t.Fatalf("%s: Multi[%d] = %d, want %d", name, i, got.Multi[i], want.Multi[i])
				}
			}
			for k := range want.Reductions {
				if got.Reductions[k] != want.Reductions[k] {
					t.Fatalf("%s: Reductions[%d] = %d, want %d", name, k, got.Reductions[k], want.Reductions[k])
				}
			}
		}
		want, err := core.Serial(AddInt64, values, labels, m)
		if err != nil {
			t.Fatalf("serial rejected derived input: %v", err)
		}
		// Second value vector for the plan-reuse round: same labels,
		// negated values (still valid for every backend, PRAM included).
		values2 := make([]int64, len(values))
		for i, v := range values {
			values2[i] = -v
		}
		want2, err := core.Serial(AddInt64, values2, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Backends() {
			cfg := Config{}
			if name == "chunked" || name == "parallel" {
				cfg.Workers = 3
			}
			be, err := OpenBackend[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := be.Compute(AddInt64, values, labels, m, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, got, want)
			plan, err := be.Plan(AddInt64, labels, m, cfg)
			if err != nil {
				t.Fatalf("%s: Plan: %v", name, err)
			}
			r1, err := plan.Run(values)
			if err != nil {
				t.Fatalf("%s: plan run 1: %v", name, err)
			}
			check(name+"/plan1", r1, want)
			r2, err := plan.Run(values2)
			if err != nil {
				t.Fatalf("%s: plan run 2: %v", name, err)
			}
			check(name+"/plan2", r2, want2)
			red, err := plan.Reduce(values)
			if err != nil {
				t.Fatalf("%s: plan reduce: %v", name, err)
			}
			for k := range want.Reductions {
				if red[k] != want.Reductions[k] {
					t.Fatalf("%s: plan red[%d] = %d, want %d", name, k, red[k], want.Reductions[k])
				}
			}
			plan.Close()
		}
	})
}

func FuzzRankIsStableSort(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{42}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]int32, len(data))
		for i, b := range data {
			keys[i] = int32(b)
		}
		ranks, err := Rank(keys, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := intsort.VerifyRanks(keys, ranks); err != nil {
			t.Fatal(err)
		}
		// Stability: equal keys rank in input order.
		last := map[int32]int64{}
		for i, k := range keys {
			if prev, ok := last[k]; ok && ranks[i] < prev {
				t.Fatalf("instability at %d", i)
			}
			last[k] = ranks[i]
		}
	})
}

func FuzzSegmentedScan(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0}, []byte{5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, segRaw, valRaw []byte) {
		n := len(segRaw)
		if len(valRaw) < n {
			n = len(valRaw)
		}
		segs := make([]bool, n)
		values := make([]int64, n)
		for i := 0; i < n; i++ {
			segs[i] = segRaw[i]%2 == 1
			values[i] = int64(valRaw[i]) - 128
		}
		scans, totals, err := SegmentedScan(AddInt64, values, segs, SpinetreeEngine[int64](Config{}))
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: direct segmented scan.
		run := int64(0)
		ti := -1
		var wantTotals []int64
		for i := 0; i < n; i++ {
			if segs[i] || i == 0 {
				if i > 0 {
					wantTotals = append(wantTotals, run)
				}
				run = 0
				ti++
			}
			if scans[i] != run {
				t.Fatalf("scan[%d] = %d, want %d", i, scans[i], run)
			}
			run += values[i]
		}
		if n > 0 {
			wantTotals = append(wantTotals, run)
		}
		if len(totals) != len(wantTotals) {
			t.Fatalf("%d totals, want %d", len(totals), len(wantTotals))
		}
		for i := range totals {
			if totals[i] != wantTotals[i] {
				t.Fatalf("totals[%d] = %d, want %d", i, totals[i], wantTotals[i])
			}
		}
		_ = ti
	})
}
