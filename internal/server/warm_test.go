package server

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestWarmFileShapes pins what the streaming reader makes of a warm
// file: null and an empty array warm nothing, keys that no longer
// validate are skipped, and anything but one array of keys is an error
// that keeps the plans built before the fault.
func TestWarmFileShapes(t *testing.T) {
	const ok = `{"backend":"serial","op":"sum","m":2,"labels":[0,1,1]}`
	for _, tc := range []struct {
		name, file string
		warmed     int
		fails      bool
	}{
		{"null", "null", 0, false},
		{"empty", " [ ] \n", 0, false},
		{"skips", `[{"backend":"gpu","op":"sum","m":2,"labels":[0]},{"backend":"serial","op":"median","m":2,"labels":[0]},` +
			`{"backend":"serial","op":"sum","m":2,"labels":[0,1,0,1,0]},{"backend":"serial","op":"sum","m":99,"labels":[0]},` +
			`{"backend":"serial","op":"sum","m":2,"labels":[0,7]},` + ok + `]`, 1, false},
		{"object", `{"backend":"serial"}`, 0, true},
		{"truncated", `[` + ok + `,{"backend":`, 1, true},
		{"bad label", `[` + ok + `,{"backend":"serial","op":"sum","m":2,"labels":[0.5]}]`, 1, true},
		{"trailing", `[` + ok + `] []`, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "plans.json")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			s := New(Options{MaxN: 4, MaxM: 8})
			defer s.Close()
			s.BeginWarm()
			warmed, err := s.WarmFromFile(path)
			if warmed != tc.warmed || (err != nil) != tc.fails {
				t.Fatalf("warmed %d, %v; want %d, error %v", warmed, err, tc.warmed, tc.fails)
			}
			if s.warming.Load() {
				t.Fatal("still warming after WarmFromFile returned")
			}
		})
	}
}

// TestWarmPeakHeap warms a file of eight keys at n=2^17 and bounds the
// heap's peak while it runs by the plans it built plus one key's text
// and labels: twice the text, which the JSON decoder buffers and grows
// by doubling, three times the labels, which grow by append while they
// decode, and 1 MiB for the rest. Reading the whole file before the
// first build would hold every key's labels at once, eight times that.
// The collector runs at GOGC=10, so the heap stays close to what is
// live, and a goroutine samples it every 200µs.
func TestWarmPeakHeap(t *testing.T) {
	const keys, n, m = 8, 1 << 17, 1 << 10
	path := filepath.Join(t.TempDir(), "plans.json")
	rng := rand.New(rand.NewSource(9))
	file := []byte{'['}
	longest := 0
	for i := range keys {
		k := warmKey[int]{Backend: "serial", Op: "sum", M: m, Labels: make([]int, n)}
		for j := range k.Labels {
			k.Labels[j] = rng.Intn(m)
		}
		text, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			file = append(file, ',')
		}
		file = append(file, text...)
		longest = max(longest, len(text))
	}
	if err := os.WriteFile(path, append(file, ']'), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Options{PlanCacheCap: keys})
	defer s.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	base := liveHeapBytes()
	stop, done := make(chan struct{}), make(chan struct{})
	var peak int64
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, int64(ms.HeapAlloc)-base)
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	warmed, err := s.WarmFromFile(path)
	close(stop)
	<-done
	if err != nil || warmed != keys {
		t.Fatalf("warmed %d plans, %v; want %d", warmed, err, keys)
	}
	plans := s.cache.bytes()
	bound := plans + int64(2*longest+3*8*n+1<<20)
	t.Logf("peak heap %d bytes above the start: plans %d, one key's text %d and labels %d", peak, plans, longest, 8*n)
	if peak > bound {
		t.Errorf("warming peaked at %d heap bytes, want at most %d", peak, bound)
	}
}
