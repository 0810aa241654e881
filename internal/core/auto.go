package core

import (
	"context"
	"math/bits"
	"sync"
	"time"

	"multiprefix/internal/par"
)

// AutoCalibration holds the knobs the adaptive engine and the plans'
// maintenance tiers resolve against. A nil Config.AutoCal means the
// defaults below; an explicit value pins them, which is how tests fix
// Auto's choice.
type AutoCalibration struct {
	// SerialMax is the largest n the one-shot rule keeps on the serial
	// engine (see AutoChoice). The default is 2^20; an explicit value
	// replaces it, and 0 means every n passes this condition.
	SerialMax int
	// Probe is the host's measured stream bandwidth. DefaultCalibration
	// fills it for reporting (bandwidth shares in benchmarks); no
	// engine choice reads it.
	Probe *MemProbe
	// UpdateBurst, when positive, pins the incremental plans'
	// update-vs-rerun crossover; 0 derives it per plan (see
	// AutoUpdateBurst).
	UpdateBurst int
}

// MemProbe is the host's measured memory profile: the sequential read
// bandwidth in bytes/second over a working set far beyond cache.
type MemProbe struct {
	StreamBps float64
}

// The one-shot rule's constants. One-shot chunked makes two passes
// over n split W ways, plus a team start and an O(W·m) merge, against
// serial's single pass: at W=2 it lost by 1.34× at n=2^22, m=16 on a
// 2-vCPU host, so it needs at least four workers and an input past
// 2^20 elements to pay off.
const (
	defaultSerialMax = 1 << 20
	autoMinWorkers   = 4
)

// autoChunked is the one-shot rule: chunked only when the call has at
// least autoMinWorkers workers, n exceeds SerialMax (cfg.AutoCal's or
// the default) and labels do not outnumber elements — m > n makes the
// per-worker O(m) bucket storage and merge dominate. Serial otherwise.
// The rule reads no labels and measures nothing; planned auto calls
// choose by a build-time trial instead (internal/backend).
func autoChunked(n, m int, cfg Config) bool {
	serialMax := defaultSerialMax
	if cfg.AutoCal != nil {
		serialMax = cfg.AutoCal.SerialMax
	}
	return par.ClampWorkers(cfg.Workers) >= autoMinWorkers && n > serialMax && m <= n
}

// AutoChoice reports which engine Auto runs for a problem shape under
// cfg: "chunked" or "serial" — for tests, the CLI's verbose mode and
// capacity planning.
func AutoChoice(n, m int, cfg Config) string {
	if autoChunked(n, m, cfg) {
		return "chunked"
	}
	return "serial"
}

// AutoPlanChoice reports the rule an auto plan applies when it runs no
// trial (an explicit Config.AutoCal, one worker, m > n, or a trial
// stopped by its budget or context): the same answer as AutoChoice. A
// plan that runs the trial reports its own pick (backend.Plan.Trial).
func AutoPlanChoice(n, m int, cfg Config) string {
	return AutoChoice(n, m, cfg)
}

// DefaultCalibration reports what a nil Config.AutoCal resolves to:
// the one-shot rule's SerialMax, and a probe holding the host's stream
// bandwidth, measured once per process on the first call. Nothing on
// the engine paths calls it. Probe is shared and read-only.
func DefaultCalibration() AutoCalibration {
	return AutoCalibration{SerialMax: defaultSerialMax, Probe: defaultMemProbe()}
}

// AutoUpdateBurst resolves an incremental plan's update-vs-rerun
// crossover for an n-element problem whose largest label class holds
// largest elements: an explicit Config.AutoCal.UpdateBurst, else
// max(1, n / (4·(⌊log₂L⌋+1))). A rebuild streams n elements; an update
// walks the ⌊log₂L⌋+1 levels of its own class tree, each a scattered
// touch worth about four streamed elements. The burst only re-orders
// maintenance work, never results.
func AutoUpdateBurst(n, largest int, cfg Config) int {
	if cal := cfg.AutoCal; cal != nil && cal.UpdateBurst > 0 {
		return cal.UpdateBurst
	}
	return max(1, n/(4*bits.Len(uint(max(largest, 1)))))
}

// MeasureMemProbe times a sequential read over 16 MiB, best of three:
// a few milliseconds.
func MeasureMemProbe() *MemProbe {
	const streamN = 1 << 21 // 16 MiB of int64: beyond L2 on anything current
	buf := make([]int64, streamN)
	for i := range buf {
		buf[i] = int64(i)
	}
	var sink int64
	best := time.Duration(1<<63 - 1)
	for range 3 {
		t0 := time.Now()
		s := int64(0)
		for _, v := range buf {
			s += v
		}
		sink += s
		best = min(best, time.Since(t0))
	}
	_ = sink
	return &MemProbe{StreamBps: float64(streamN*8) / max(best, time.Nanosecond).Seconds()}
}

var defaultMemProbe = sync.OnceValue(MeasureMemProbe)

// AutoEngine returns the adaptive engine: it picks Serial or Chunked
// per call by the one-shot rule (AutoChoice), wrapped in the Fallback
// machinery so an internal failure in the chunked engine degrades to
// the serial reference instead of failing the request (invalid input
// and cancellation are still returned as-is).
func AutoEngine[T any](cfg Config) Engine[T] {
	inner := func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		if autoChunked(len(values), m, cfg) {
			return Chunked(op, values, labels, m, cfg)
		}
		return serialCtx(op, values, labels, m, cfg)
	}
	return Fallback(inner, nil)
}

// Auto runs the multiprefix operation through AutoEngine.
func Auto[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return AutoEngine[T](cfg)(op, values, labels, m)
}

// AutoReduce is the multireduce counterpart of Auto, with the same
// engine selection and fallback-to-serial rules.
func AutoReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	var red []T
	var err error
	if autoChunked(len(values), m, cfg) {
		red, err = ChunkedReduce(op, values, labels, m, cfg)
	} else {
		red, err = serialReduceCtx(op, values, labels, m, cfg)
	}
	if err == nil {
		return red, nil
	}
	if terminal(err) {
		return nil, err
	}
	return SerialReduce(op, values, labels, m)
}

// serialCtx is Serial honoring cfg.Ctx: with a context the single
// bucket pass runs in cancelStride segments polling at each boundary
// (SerialSegments), matching the parallel branches' mid-run
// cancellation promptness.
func serialCtx[T any](op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	multi := make([]T, len(values))
	buckets := make([]T, m)
	fillIdentity(buckets, op.Identity)
	if err := SerialSegments(op, values, labels, multi, buckets, cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: buckets}, nil
}

// serialReduceCtx is SerialReduce under the same segmented
// cancellation polling as serialCtx.
func serialReduceCtx[T any](op Op[T], values []T, labels []int, m int, cfg Config) (red []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	buckets := make([]T, m)
	fillIdentity(buckets, op.Identity)
	if err := SerialSegments(op, values, labels, nil, buckets, cfg.Ctx); err != nil {
		return nil, err
	}
	return buckets, nil
}

// SerialSegments runs the serial bucket pass over values into multi
// (nil for reduce-only) and buckets, which must hold the identity.
// With a context it runs in cancelStride segments, polling ctx at each
// boundary; the pass carries no state across segments beyond the
// buckets, so segmenting is exact. The one-shot, pooled and planned
// serial paths all run this loop.
func SerialSegments[T any, L Label](op Op[T], values []T, labels []L, multi, buckets []T, ctx context.Context) error {
	n := len(values)
	if ctx == nil {
		BucketRange(op, op.Fast, "serial", values, labels, multi, buckets, 0, n, nil)
		return nil
	}
	for lo := 0; lo < n || lo == 0; lo += cancelStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+cancelStride, n)
		BucketRange(op, op.Fast, "serial", values, labels, multi, buckets, lo, hi, nil)
		if hi == n {
			break
		}
	}
	return nil
}

// serialCtxIn is the pooled counterpart of serialCtx, drawing multi
// and the bucket array from b.
func (b *Buffers[T]) serialCtxIn(op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	fillIdentity(red, op.Identity)
	if err := SerialSegments(op, values, labels, multi, red, cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// serialReduceCtxIn is the pooled counterpart of serialReduceCtx.
func (b *Buffers[T]) serialReduceCtxIn(op Op[T], values []T, labels []int, m int, cfg Config) (red []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	red = b.growRed(m)
	fillIdentity(red, op.Identity)
	if err := SerialSegments(op, values, labels, nil, red, cfg.Ctx); err != nil {
		return nil, err
	}
	return red, nil
}

// Auto is the adaptive engine on pooled state: the same per-call
// selection and serial degradation as the package-level Auto, with
// every branch drawing storage from b.
func (b *Buffers[T]) Auto(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	var res Result[T]
	var err error
	if autoChunked(len(values), m, cfg) {
		res, err = b.Chunked(op, values, labels, m, cfg)
	} else {
		res, err = b.serialCtxIn(op, values, labels, m, cfg)
	}
	if err == nil {
		return res, nil
	}
	if terminal(err) {
		return Result[T]{}, err
	}
	return b.Serial(op, values, labels, m)
}

// AutoReduce is the multireduce counterpart of Buffers.Auto.
func (b *Buffers[T]) AutoReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	var red []T
	var err error
	if autoChunked(len(values), m, cfg) {
		red, err = b.ChunkedReduce(op, values, labels, m, cfg)
	} else {
		red, err = b.serialReduceCtxIn(op, values, labels, m, cfg)
	}
	if err == nil {
		return red, nil
	}
	if terminal(err) {
		return nil, err
	}
	return b.SerialReduce(op, values, labels, m)
}
