package main

import (
	"math"
	"slices"
)

// opSample is one completed (or failed) operation of a measured phase:
// when it finished, in nanoseconds since the phase started, and how long
// it took. A failed operation carries failedLat, so it counts as missing
// every latency limit.
type opSample struct {
	end, lat int64
}

const failedLat = math.MaxInt64

// quantile is the linear-interpolation quantile (numpy's default) of an
// ascending slice; q in [0, 1].
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := q * float64(len(sorted)-1)
	lo := int(h)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	if sorted[lo+1] == sorted[lo] { // also keeps +Inf (failed) from making NaN
		return sorted[lo]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles returns Python's statistics.quantiles(data, n=4) (the
// default "exclusive" method), so spreads printed here match the ones
// computed over the JSON results by that function. Fewer than two
// values give the value itself for all three.
func quartiles(data []float64) (q1, q2, q3 float64) {
	s := slices.Clone(data)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func median(data []float64) float64 {
	_, m, _ := quartiles(data)
	return m
}

// spread is a figure with the distribution it was taken from: the
// median, the quartiles and how many samples, and what a sample is.
type spread struct {
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	N        int     `json:"n"`
	SampleOf string  `json:"sample_of"`
}

func spreadOf(data []float64, sampleOf string) spread {
	q1, q2, q3 := quartiles(data)
	return spread{Median: q2, Q1: q1, Q3: q3, N: len(data), SampleOf: sampleOf}
}

// latencies returns the op latencies in milliseconds, ascending, failed
// operations as +Inf.
func latencies(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		if o.lat == failedLat {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(o.lat) / 1e6
		}
	}
	slices.Sort(out)
	return out
}

// tailPercentile is the highest of the usual reporting percentiles that
// has at least ten samples beyond it, with its value; ok is false when
// even the median lacks ten.
func tailPercentile(sortedMs []float64) (pct, value float64, ok bool) {
	for _, p := range []float64{99.99, 99.9, 99, 95, 90, 75, 50} {
		if float64(len(sortedMs))*(1-p/100) >= 10 {
			return p, quantile(sortedMs, p/100), true
		}
	}
	return 0, 0, false
}

// windowFigures splits a phase into one-second windows and returns, per
// window, the throughput and the latency p50 and p90 in milliseconds of
// the operations that completed in it. Operations ending after the last
// full window fold into it.
//
// With busy set, a window's throughput is its successful operations
// over the time spent inside them: one caller whose own checking between
// operations is not the program's work. Otherwise it is the operations
// done in the window's wall time, each successful operation counting as
// the fraction of its duration that fell inside the window, so the
// figure is not rounded to whole requests.
func windowFigures(ops []opSample, windows int, busy bool) (tput, p50, p90 []float64) {
	windows = max(windows, 1)
	clampW := func(ns int64) int { return min(int(ns/1e9), windows-1) }
	per := make([][]opSample, windows)
	done := make([]float64, windows)
	busyNs := make([]float64, windows)
	last := int64(0)
	for _, o := range ops {
		w := clampW(o.end)
		per[w] = append(per[w], o)
		last = max(last, o.end)
		switch {
		case o.lat == failedLat:
		case busy:
			done[w]++
			busyNs[w] += float64(o.lat)
		default:
			start := o.end - o.lat
			for x := start / 1e9; x <= o.end/1e9; x++ {
				lo, hi := max(start, x*1e9), min(o.end, (x+1)*1e9)
				if hi > lo {
					done[clampW(x*1e9)] += float64(hi-lo) / float64(o.lat)
				}
			}
		}
	}
	for w, ws := range per {
		if len(ws) == 0 {
			continue
		}
		span := 1e9
		if w == windows-1 {
			span = max(span, float64(last-int64(w)*1e9))
		}
		if busy {
			span = busyNs[w]
		}
		if span > 0 {
			tput = append(tput, done[w]/(span/1e9))
		}
		lat := latencies(ws)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	return tput, p50, p90
}

// cpuBatch is a run of back-to-back operations timed by the process's
// CPU clock: when the last one ended, in nanoseconds since the phase
// started, how many succeeded, and the CPU seconds the process used
// from the batch's start to its end.
type cpuBatch struct {
	end  int64
	ok   int
	cpuS float64
}

// cpuWindows is, per one-second window, the successful operations of
// the batches that ended in it over the CPU time those batches used.
// For a single caller thread this is the wall-clock rate the program
// sustains on a core of its own: time the host's hypervisor gives to
// other guests (steal) is not CPU time of this process.
func cpuWindows(batches []cpuBatch, windows int) []float64 {
	windows = max(windows, 1)
	ok := make([]float64, windows)
	cpu := make([]float64, windows)
	for _, b := range batches {
		w := min(int(b.end/1e9), windows-1)
		ok[w] += float64(b.ok)
		cpu[w] += b.cpuS
	}
	var out []float64
	for w := range ok {
		if cpu[w] > 0 {
			out = append(out, ok[w]/cpu[w])
		}
	}
	return out
}
