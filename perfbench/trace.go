package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program: which operation it belonged to, the span that caused it (-1
// for an operation's root), and its start and end in nanoseconds since
// the trace epoch.
type span struct {
	name       string
	parent, op int32
	start, end int64
}

// spanLog keeps one goroutine's spans in memory, up to a fixed
// capacity, so recording costs two clock reads and a slice store. A
// full log refuses new spans; the traced phase stops there.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time, capacity int) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, capacity)}
}

// full reports whether another operation of up to n spans would not fit.
func (l *spanLog) full(n int) bool { return len(l.spans)+n > cap(l.spans) }

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name string, parent, op int32) int32 {
	l.spans = append(l.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(l.epoch))})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) { l.spans[i].end = int64(time.Since(l.epoch)) }

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns each span's duration minus the durations of its
// children: the time the layer spent in its own code.
func (l *spanLog) selfTimes() []int64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// spanDurations are the durations in nanoseconds of several logs'
// spans, by name, ascending.
type spanDurations map[string][]float64

func durations(logs ...*spanLog) spanDurations {
	d := spanDurations{}
	for _, l := range logs {
		for _, s := range l.spans {
			d[s.name] = append(d[s.name], float64(s.dur()))
		}
	}
	for _, v := range d {
		slices.Sort(v)
	}
	return d
}

// p50 is the median duration of the named spans in nanoseconds.
func (d spanDurations) p50(name string) float64 { return quantile(d[name], 0.5) }

// moduleSelf is the median over operations of each module's summed
// self time per operation, in nanoseconds; a span's module is its name
// up to the first dot.
func moduleSelf(l *spanLog) map[string]float64 {
	self := l.selfTimes()
	byOp := map[int32]map[string]float64{}
	for i, s := range l.spans {
		mod, _, _ := strings.Cut(s.name, ".")
		if byOp[s.op] == nil {
			byOp[s.op] = map[string]float64{}
		}
		byOp[s.op][mod] += float64(self[i])
	}
	per := map[string][]float64{}
	for _, mods := range byOp {
		for mod, v := range mods {
			per[mod] = append(per[mod], v)
		}
	}
	out := map[string]float64{}
	for mod, v := range per {
		out[mod] = median(v)
	}
	return out
}

// writeSpans writes every span as one tab-separated line: part,
// goroutine, operation, span index, parent index, name, start and end
// in nanoseconds since the trace epoch.
func writeSpans(path string, parts map[string][]*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "part\tgoroutine\top\tspan\tparent\tname\tstart_ns\tend_ns")
	names := make([]string, 0, len(parts))
	for p := range parts {
		names = append(names, p)
	}
	slices.Sort(names)
	for _, p := range names {
		for g, l := range parts[p] {
			for i, s := range l.spans {
				fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\t%d\t%d\n", p, g, s.op, i, s.parent, s.name, s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
