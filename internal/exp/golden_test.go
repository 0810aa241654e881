package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from this run")

// wallLine matches the line RunByIDs prints after each experiment, the
// one part of the report that changes from run to run.
var wallLine = regexp.MustCompile(`(?m)^\[(\w+) completed in [0-9.]+s wall\]$`)

// TestReportGolden runs every experiment at the default scale, as
// cmd/experiments does, and compares the report, its wall-time lines
// masked, byte for byte with testdata/report.golden, at GOMAXPROCS 1
// and 2: the simulated machines' figures do not depend on the host.
// `go test ./internal/exp -run Golden -update` rewrites the file.
func TestReportGolden(t *testing.T) {
	path := filepath.Join("testdata", "report.golden")
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		var sb strings.Builder
		err := RunByIDs(&sb, "all", false)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := wallLine.ReplaceAllString(sb.String(), "[$1 completed in N.Ns wall]")
		if *update && procs == 1 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gl), len(wl)) {
				g, w := "<end>", "<end>"
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("GOMAXPROCS=%d: report line %d is %q, %s has %q (go test ./internal/exp -run Golden -update rewrites it)", procs, i+1, g, path, w)
				}
			}
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if banner := fmt.Sprintf("\n== %s: %s (%s) ==\n", e.ID, e.Title, e.PaperRef); !strings.Contains(string(want), banner) {
			t.Errorf("%s has no report of %s", path, e.ID)
		}
	}
}
