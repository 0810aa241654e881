package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"multiprefix/internal/par"
)

// AutoCalibration holds the crossover points the Auto engine picks
// engines with. The zero value is usable (Serial for everything up to
// SerialMax = 0 means Serial never wins — so prefer the measured
// defaults or explicit positive values).
type AutoCalibration struct {
	// SerialMax is the largest n for which the serial engine is
	// preferred over any parallel decomposition: below it, goroutine
	// coordination costs dominate the work.
	SerialMax int
	// ParallelOverChunked prefers the barrier-synchronous Parallel
	// engine over Chunked for inputs above SerialMax. Chunked wins on
	// every machine we have measured (far fewer synchronization
	// points), but the probe keeps the choice honest.
	ParallelOverChunked bool
	// SortedMinM is the smallest label count at which the sorted
	// segmented-scan engine beats the serial bucket pass in the serial
	// regime: once the m-element accumulator array falls out of cache,
	// the bucket pass's scattered writes thrash while the sorted scan
	// streams contiguous runs. 0 means the sorted engine never wins.
	// Consulted only when Probe is nil: with a measured probe the
	// serial-vs-sorted decision comes from the cost model instead of
	// this single threshold.
	SortedMinM int
	// Probe is the measured memory profile feeding the
	// serial-vs-sorted cost model (see MemProbe). The process-wide
	// calibration fills it from a one-time measurement; explicit
	// Config.AutoCal values may supply a synthetic probe to pin
	// decisions, or leave it nil to fall back to SortedMinM.
	Probe *MemProbe
	// TileBytes is the sorted engine's per-tile cache budget in bytes;
	// 0 means DefaultTileBytes. The calibration derives it from the
	// probe's random-update ladder.
	TileBytes int
	// UpdateBurst, when positive, pins the incremental plans'
	// update-vs-rerun crossover to a constant (the MP_AUTOCAL=updburst
	// override); 0 derives it per shape from the probe's cost model
	// (MemProbe.UpdateBurst) or the folklore n/(4·log2 n) fallback.
	UpdateBurst int
	// ShardedMinN governs the planned engines' chunked-vs-sharded
	// crossover (AutoPlanChoice; one-shot Auto never picks sharded —
	// its plan-time per-shard counting sorts don't amortize in a single
	// evaluation). Positive pins it: auto plans in the parallel regime
	// go sharded at n ≥ ShardedMinN. 0 derives the decision from the
	// probe's cost model (sharded wherever ShardedNs prices below
	// ChunkedNs); negative disables sharded selection entirely.
	ShardedMinN int
}

// sortedWins reports whether the sorted engine is predicted to beat
// the serial bucket pass at shape (n, m): by the measured cost model
// when a probe is present, by the SortedMinM threshold otherwise.
// The model prices the tiled scan, so inputs whose working set fits
// one tile — where no tiling exists and the bucket array is cache-
// resident anyway — stay serial.
func (cal AutoCalibration) sortedWins(n, m int) bool {
	if p := cal.Probe; p != nil {
		tile := cal.TileBytes
		if tile <= 0 {
			tile = p.TileBytes
		}
		if tile <= 0 {
			tile = DefaultTileBytes
		}
		if n*tiledElemBytes <= 3*tile {
			// Below TileWindow's four-window floor no tiling exists, the
			// bucket array is cache-resident anyway: stay serial.
			return false
		}
		return p.SortedNs(n, m, tile) < p.SerialNs(n, m)
	}
	return cal.SortedMinM > 0 && m >= cal.SortedMinM
}

// shardedWins reports whether a planned sharded decomposition is
// predicted to beat the chunked engine at shape (n, m) with the given
// worker count. The chunked engine pays a random bucket update per
// element in an 8m-byte working set twice (accumulate + apply); the
// sharded engine streams sorted runs twice plus the logarithmic
// exchange — so sharded wins where the label count pushes the bucket
// array out of cache and the per-shard runs stay long enough to
// stream.
func (cal AutoCalibration) shardedWins(n, m, workers int) bool {
	if cal.ShardedMinN < 0 || m > n || n > maxSortedN {
		return false
	}
	if cal.ShardedMinN > 0 {
		return n >= cal.ShardedMinN
	}
	p := cal.Probe
	if p == nil {
		return false
	}
	tile := cal.TileBytes
	if tile <= 0 {
		tile = p.TileBytes
	}
	if tile <= 0 {
		tile = DefaultTileBytes
	}
	return p.ShardedNs(n, m, workers, tile) < p.ChunkedNs(n, m, workers)
}

// AutoTileBytes resolves the sorted engine's per-tile budget for cfg:
// an explicit Config.AutoCal override, else the process calibration's
// derived value — the measured probe's ladder knee with any MP_AUTOCAL
// override applied on top — else DefaultTileBytes. Resolving the
// process calibration is a one-time measurement (the probe is skipped
// under MP_AUTOCAL=noprobe); the budget only re-orders memory traffic,
// never results, so plans may consult it freely.
func AutoTileBytes(cfg Config) int {
	if cal := cfg.AutoCal; cal != nil {
		if cal.TileBytes > 0 {
			return cal.TileBytes
		}
		if cal.Probe != nil && cal.Probe.TileBytes > 0 {
			return cal.Probe.TileBytes
		}
		return DefaultTileBytes
	}
	if cal := defaultAutoCal(); cal.TileBytes > 0 {
		return cal.TileBytes
	}
	return DefaultTileBytes
}

// AutoUpdateBurst resolves an incremental plan's update-vs-rerun
// crossover for an n-element problem under cfg: an explicit
// Config.AutoCal / MP_AUTOCAL pin, else the measured probe's cost
// model (one rebuild vs. log-depth tree walks), else the folklore
// n/(4·log2 n). The burst only re-orders maintenance work, never
// results, so plans may consult it freely — the mirror of
// AutoTileBytes for the update path.
func AutoUpdateBurst(n int, cfg Config) int {
	cal := cfg.AutoCal
	if cal == nil {
		c := defaultAutoCal()
		cal = &c
	}
	if cal.UpdateBurst > 0 {
		return cal.UpdateBurst
	}
	if cal.Probe != nil {
		return cal.Probe.UpdateBurst(n)
	}
	return fallbackUpdateBurst(n)
}

// DefaultCalibration returns the resolved process-wide calibration the
// Auto engine uses for default-config calls: the one-time measured
// probe and derived tile budget (or the timed fallbacks under
// MP_AUTOCAL=noprobe) with MP_AUTOCAL field overrides applied. The
// returned value is a copy; Probe, when non-nil, is shared and must be
// treated as read-only.
func DefaultCalibration() AutoCalibration {
	return defaultAutoCal()
}

// engineKind is the Auto engine's selection.
type engineKind uint8

const (
	kindSerial engineKind = iota
	kindChunked
	kindParallel
	kindSorted
)

func (k engineKind) String() string {
	switch k {
	case kindChunked:
		return "chunked"
	case kindParallel:
		return "parallel"
	case kindSorted:
		return "sorted"
	default:
		return "serial"
	}
}

var (
	autoOnce sync.Once
	autoCal  AutoCalibration
)

// defaultAutoCal returns the process-wide calibration, measuring it on
// first use (a few milliseconds, once).
func defaultAutoCal() AutoCalibration {
	autoOnce.Do(func() { autoCal = calibrate() })
	return autoCal
}

// calibrate times Serial against Chunked (and Parallel) on synthetic
// int64-sum workloads of growing size to locate the serial/parallel
// crossover — the approach of Träff's tuned MPI_Exscan: pick the
// algorithm variant per problem shape, from measurements, not faith.
// The serial-vs-sorted decision is delegated to the measured memory
// probe's cost model (memprobe.go); the timed SortedMinM head-to-head
// remains only as the fallback when the probe is disabled
// (MP_AUTOCAL=noprobe), and MP_AUTOCAL field overrides are applied
// last so CI can pin any of the knobs.
func calibrate() AutoCalibration {
	cal := AutoCalibration{SerialMax: 1 << 20}
	cal.Probe = defaultMemProbe()
	if cal.Probe != nil {
		cal.TileBytes = cal.Probe.TileBytes
	} else {
		cal.SortedMinM = calibrateSorted()
	}
	if par.DefaultWorkers() <= 1 {
		// One usable CPU: a parallel decomposition cannot win, and the
		// Workers gate in autoPick sends default-config calls to Serial
		// anyway, so skip the probe.
		return applyAutoCalEnv(cal)
	}
	const m = 512
	sizes := []int{1 << 13, 1 << 15, 1 << 17}
	var values []int64
	var labels []int
	fill := func(n int) {
		values = make([]int64, n)
		labels = make([]int, n)
		for i := range values {
			values[i] = int64(i&1023) - 512
			labels[i] = int(uint32(i*2654435761) % m)
		}
	}
	found := false
	for _, n := range sizes {
		fill(n)
		ts := bestOf(3, func() { _, _ = Serial(AddInt64, values, labels, m) })
		tc := bestOf(3, func() { _, _ = Chunked(AddInt64, values, labels, m, Config{}) })
		if tc < ts {
			cal.SerialMax = n / 2
			found = true
			break
		}
	}
	if found {
		n := sizes[len(sizes)-1]
		fill(n)
		tc := bestOf(3, func() { _, _ = Chunked(AddInt64, values, labels, m, Config{}) })
		tp := bestOf(3, func() { _, _ = Parallel(AddInt64, values, labels, m, Config{}) })
		cal.ParallelOverChunked = tp < tc
	}
	return applyAutoCalEnv(cal)
}

// calibrateSorted probes the serial-regime crossover between the
// bucket pass and the sorted segmented scan at a label count large
// enough to stress the accumulator array (m = 2^14, 128 KiB of int64
// buckets). The sorted engine pays a gather per element but keeps its
// write streams contiguous; it wins only where the bucket array
// overwhelms the cache hierarchy, so on machines with very large
// last-level caches the honest answer is 0 (never).
func calibrateSorted() int {
	const n, m = 1 << 17, 1 << 14
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(i&1023) - 512
		labels[i] = int(uint32(i*2654435761) % m)
	}
	ts := bestOf(3, func() { _, _ = Serial(AddInt64, values, labels, m) })
	tsorted := bestOf(3, func() { _, _ = Sorted(AddInt64, values, labels, m, Config{}) })
	if tsorted < ts {
		return m / 2
	}
	return 0
}

// bestOf returns the fastest of reps timed runs of f.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// autoPick selects the engine for a problem shape. Serial wins when
// only one worker is available, when n is below the calibrated
// crossover, or when labels outnumber elements (m > n: the dense O(m)
// per-worker bucket storage and merge dominate any parallel gain).
// Within that serial regime, the sorted segmented scan takes over
// where the calibration predicts it faster — the measured probe's
// cost model when present, the SortedMinM threshold otherwise; m > n
// still goes serial — the sorted engine needs the same O(m) run-bound
// array the bucket pass thrashes on.
func autoPick(n, m, workers int, cal AutoCalibration) engineKind {
	if workers <= 1 || n <= cal.SerialMax || m > n {
		if m <= n && n <= maxSortedN && cal.sortedWins(n, m) {
			return kindSorted
		}
		return kindSerial
	}
	if cal.ParallelOverChunked {
		return kindParallel
	}
	return kindChunked
}

// autoKind resolves the calibration (Config override or process-wide
// measurement) and picks the engine for one call.
func autoKind(n, m int, cfg Config) engineKind {
	cal := cfg.AutoCal
	if cal == nil {
		c := defaultAutoCal()
		cal = &c
	}
	return autoPick(n, m, par.ClampWorkers(cfg.Workers), *cal)
}

// AutoChoice reports which engine Auto would run for a problem shape
// under cfg — exposed for tests, the CLI's verbose mode and capacity
// planning.
func AutoChoice(n, m int, cfg Config) string {
	return autoKind(n, m, cfg).String()
}

// AutoPlanChoice reports which engine an auto Plan builds for a
// problem shape under cfg. It extends AutoChoice with the planned-only
// sharded engine: a plan evaluates many vectors against one label
// structure, so in the parallel regime the choice falls to the cheaper
// of the chunked and sharded cost models (an explicit Config.Shards
// forces sharded decompositions regardless — that knob belongs to the
// sharded backend, not auto).
func AutoPlanChoice(n, m int, cfg Config) string {
	cal := cfg.AutoCal
	if cal == nil {
		c := defaultAutoCal()
		cal = &c
	}
	workers := par.ClampWorkers(cfg.Workers)
	k := autoPick(n, m, workers, *cal)
	if (k == kindChunked || k == kindParallel) && cal.shardedWins(n, m, workers) {
		return "sharded"
	}
	return k.String()
}

// AutoEngine returns the adaptive engine: it picks
// Serial/Chunked/Parallel per call from (n, m, Workers) and the
// calibrated crossover points, wrapped in the Fallback machinery so an
// internal failure in a parallel engine degrades to the serial
// reference instead of failing the request (invalid input and
// cancellation are still returned as-is).
func AutoEngine[T any](cfg Config) Engine[T] {
	inner := func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		switch autoKind(len(values), m, cfg) {
		case kindParallel:
			return Parallel(op, values, labels, m, cfg)
		case kindChunked:
			return Chunked(op, values, labels, m, cfg)
		case kindSorted:
			return Sorted(op, values, labels, m, cfg)
		default:
			return serialCtx(op, values, labels, m, cfg)
		}
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
	switch autoKind(len(values), m, cfg) {
	case kindParallel:
		red, err = ParallelReduce(op, values, labels, m, cfg)
	case kindChunked:
		red, err = ChunkedReduce(op, values, labels, m, cfg)
	case kindSorted:
		red, err = SortedReduce(op, values, labels, m, cfg)
	default:
		red, err = serialReduceCtx(op, values, labels, m, cfg)
	}
	if err == nil {
		return red, nil
	}
	if errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
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
func SerialSegments[T any](op Op[T], values []T, labels []int, multi, buckets []T, ctx context.Context) error {
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
	switch autoKind(len(values), m, cfg) {
	case kindParallel:
		res, err = b.Parallel(op, values, labels, m, cfg)
	case kindChunked:
		res, err = b.Chunked(op, values, labels, m, cfg)
	case kindSorted:
		res, err = b.Sorted(op, values, labels, m, cfg)
	default:
		res, err = b.serialCtxIn(op, values, labels, m, cfg)
	}
	if err == nil {
		return res, nil
	}
	if errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Result[T]{}, err
	}
	return b.Serial(op, values, labels, m)
}

// AutoReduce is the multireduce counterpart of Buffers.Auto.
func (b *Buffers[T]) AutoReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	var red []T
	var err error
	switch autoKind(len(values), m, cfg) {
	case kindParallel:
		red, err = b.ParallelReduce(op, values, labels, m, cfg)
	case kindChunked:
		red, err = b.ChunkedReduce(op, values, labels, m, cfg)
	case kindSorted:
		red, err = b.SortedReduce(op, values, labels, m, cfg)
	default:
		red, err = b.serialReduceCtxIn(op, values, labels, m, cfg)
	}
	if err == nil {
		return red, nil
	}
	if errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	return b.SerialReduce(op, values, labels, m)
}
