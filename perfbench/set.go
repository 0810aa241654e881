package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the set summary checks
// spreads against.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet runs each workload count times, seeds seed..seed+count-1, each
// run in a fresh process, and prints per metric the median, quartiles
// and sample count over the runs, the interquartile range as a share of
// the median beside a third of the metric's bound, and how many runs'
// Auto picks differed from the rest. It returns the exit code: 1 when
// any run failed.
func runSet(name string, seed uint64, count, seconds, trace int, mpdPath, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if json.Unmarshal(b, &spec) == nil {
			for _, m := range spec.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
	}
	code := 0
	for _, w := range workloads {
		if name != "" && w.name != name {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		// picks holds each run's Auto pick: that of the process which ran
		// the measured phase (the first calibration sample); samples
		// tallies every set-up sample's.
		var picks []string
		samples := map[string]int{}
		var attempted, failed int
		for i := 0; i < count; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--mpd", mpdPath, "--out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil || !res.Correct {
				fmt.Printf("%s seed %d: FAILED (%v)\n", w.name, s, err)
				code = 1
				continue
			}
			attempted += res.Attempted
			failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			var rec record
			if b, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, s, trace))); err == nil && json.Unmarshal(b, &rec) == nil && len(rec.Calib) > 0 {
				pick := func(c calibSample) string {
					return fmt.Sprintf("serial_max=%d auto_engine=%s", c.SerialMax, c.Picks[w.name])
				}
				picks = append(picks, pick(rec.Calib[0]))
				for _, c := range rec.Calib {
					samples[pick(c)]++
				}
			}
			fmt.Printf("%s seed %d: ok, %d operations, %d failed\n", w.name, s, res.Attempted, res.Failed)
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		slices.Sort(names)
		fmt.Printf("\n%s: %d runs, seeds %d..%d, %d s each, trace %d\n", w.name, count, seed, seed+uint64(count)-1, seconds, trace)
		fmt.Printf("  %-40s %-9s %14s %14s %14s %3s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "n", "iqr/med", "bound/3")
		for _, k := range names {
			q1, q2, q3 := quartiles(values[k])
			rel := (q3 - q1) / q2
			b := "-"
			if bd, ok := bounds[k]; ok {
				b = fmt.Sprintf("%.4f", bd/3)
				if k != "setup_s" && rel > bd/3 {
					b += " !"
				}
			}
			fmt.Printf("  %-40s %-9s %14.6g %14.6g %14.6g %3d %9.4f %9s\n", k, units[k], q2, q1, q3, len(values[k]), rel, b)
		}
		fmt.Printf("  failed_share over the set: %.6f (%d of %d operations)\n", float64(failed)/float64(max(1, attempted)), failed, attempted)
		mode, differ := modeOf(picks)
		fmt.Printf("  Auto at this shape, per run: %s\n", strings.Join(picks, "; "))
		fmt.Printf("  runs whose pick differs from the most common (%s): %d of %d\n", mode, differ, len(picks))
		keys := make([]string, 0, len(samples))
		for k := range samples {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Printf("  every set-up sample's pick:")
		for _, k := range keys {
			fmt.Printf(" %s x%d;", k, samples[k])
		}
		fmt.Printf("\n\n")
	}
	return code
}

// modeOf returns the most common string and how many differ from it.
func modeOf(xs []string) (string, int) {
	counts := map[string]int{}
	best := ""
	for _, x := range xs {
		counts[x]++
		if counts[x] > counts[best] {
			best = x
		}
	}
	return best, len(xs) - counts[best]
}
