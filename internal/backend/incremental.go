package backend

import (
	"fmt"
	"math"

	"multiprefix/internal/core"
)

// This file is the stateful half of Plan (DESIGN.md §14): a plan can
// *bind* a resident value vector and then serve point updates and
// point queries against it far cheaper than re-running the whole
// pipeline. The sorted engine's label structure — the counting-sort
// permutation and per-label run bounds, borrowed from a one-shard
// sorted or sharded plan and built at the first Bind otherwise — lays
// each label class out as one contiguous run of the sorted order, and
// each run holds that class's own Fenwick tree: the paper's "spinetree
// per label class", with a Fenwick tree in the spinetree's place. All
// the trees share one n-entry array, class c's tree being
// ftree[istart[c]:istart[c+1]]. With P_c(k) the sum of the first k
// values of class c in sorted order, and element i at offset off_i of
// its class c,
//
//	multi[i] = P_c(off_i)
//	red[c]   = P_c(len_c)
//
// so QueryPrefix and ReduceLabel are one walk over their class's tree,
// O(log len_c), and Update(i, v) is one walk that stops at the class's
// end. Each element's class and offset sit in one 8-byte record
// (classPos), so a call reads one record, not the label vector.
//
// # Maintenance tiers
//
// The Fenwick tier needs an invertible operator whose Fenwick
// association is bit-identical to the serial order:
//
//   - int64 sum: always (two's-complement addition is associative
//     mod 2^64, overflow included);
//   - float64 sum: only inside the exact envelope — every resident
//     value an integer-valued float with |v| <= 2^52/L, L the largest
//     class (see core.FenwickFloat64Bound): a tree, like every engine's
//     recompute, only ever sums values of one class. The moment a bound
//     or updated value leaves the envelope the plan *drifts*: it
//     permanently (until the next Bind) serves from the full re-run
//     tier, because float64 addition is not reassociable and
//     per-operation exactness checks cannot guarantee bit-identity
//     with the serial order.
//   - everything else (max, min, prod, generic ops): non-invertible —
//     updates just dirty the resident vector and queries re-run the
//     plan's own engine, refreshing the snapshot.
//
// A burst threshold (core.AutoUpdateBurst, from n and the largest
// class) bounds per-update maintenance: once more
// than burst updates arrive between queries, applying each to the
// tree costs more than one rebuild, so the plan marks the tree stale
// (O(1) per further update) and falls back to a full re-run + rebuild
// at the next query.
//
// # Consistency
//
// Every entry point serializes on p.mu like Run/RunBatch, so
// concurrent readers never observe torn state: a query sees either
// the state before an update or after it, never a half-applied
// mutation. The snapshot (snapMulti/snapRed) is copy-on-refresh
// storage separate from the run scratch, so interleaved Run/RunBatch
// traffic on other value vectors does not corrupt resident answers.
// Version() increments on every Bind and Update and is atomic: the
// service layer reads it without taking the evaluation lock (see
// backend.Key for the cache-key-vs-version contract). A conditional
// mutation pins it through Call.Pin, which BindCall and UpdateCall
// check under p.mu, so two mutations pinned to one version cannot
// both apply.
//
// The re-run tier executes through the plan's own engine (p.run), so
// per-call contexts, fault hooks and the auto plan's serial fallback
// all keep working; the Fenwick tier performs pure arithmetic and is
// not fault-injectable.

// incMode is a bound plan's maintenance tier, fixed by the operator
// and element type at first Bind.
type incMode uint8

const (
	// incNone: dirty-set + full re-run (non-invertible or generic op).
	incNone incMode = iota
	// incInt64: Fenwick deltas, exact under any association.
	incInt64
	// incFloat64: Fenwick deltas inside the exact envelope, re-run
	// tier after drift.
	incFloat64
)

// classPos is an element's place in the Fenwick tier: its label class
// and its offset in the class's run of the sorted order.
type classPos struct {
	class, off int32
}

// ErrNotBound is returned by the stateful entry points (Update,
// QueryPrefix, ReduceLabel, Snapshot) when the plan has no resident
// value vector. It wraps core.ErrBadInput: retrying elsewhere cannot
// help — the caller must Bind first (and must re-Bind after a cache
// eviction closed the plan, which discards resident state).
var ErrNotBound = fmt.Errorf("%w: plan has no resident values (call Bind first)", core.ErrBadInput)

// VersionConflictError rejects a pinned mutation (Call.Pin) on a plan
// whose state version is not the pinned one. The mutation changed
// nothing. It is terminal: a retry meets the same version.
type VersionConflictError struct {
	// Pin is the version the call was conditional on.
	Pin uint64
	// Version is the plan's version when the call took the plan lock.
	Version uint64
}

func (e *VersionConflictError) Error() string {
	return fmt.Sprintf("plan version conflict: plan is at version %d, pinned %d", e.Version, e.Pin)
}

// IncStats is a point-in-time snapshot of a plan's incremental
// counters, for observability (the service's /metrics endpoint).
type IncStats struct {
	// Bound reports whether a resident value vector is installed.
	Bound bool
	// Mode is the effective maintenance tier: "fenwick-int64",
	// "fenwick-float64", or "rerun" (non-invertible op, float drift,
	// or no Fenwick support for the element type).
	Mode string
	// Version is the current state version (see Plan.Version).
	Version uint64
	// Burst is the update-vs-rerun crossover in effect.
	Burst int
	// Binds counts successful Bind calls.
	Binds uint64
	// Updates counts accepted point updates.
	Updates uint64
	// FenwickUpdates counts updates applied as class-tree deltas.
	FenwickUpdates uint64
	// FenwickQueries counts queries answered from a class tree.
	FenwickQueries uint64
	// SnapshotQueries counts queries answered O(1) from a clean
	// snapshot (including after a re-run refresh).
	SnapshotQueries uint64
	// Rebuilds counts O(n) rebuilds of the class trees.
	Rebuilds uint64
	// Reruns counts full engine re-runs refreshing the snapshot.
	Reruns uint64
	// Drifts counts transitions out of the float64 exact envelope.
	Drifts uint64
}

// Version reports the plan's state version: it increments on every
// Bind and every Update, and is stable across queries. Reads are
// atomic and lock-free, so the service layer can pin a version and
// detect conflicting mutation without serializing behind evaluations.
// The cache key (backend.Key) deliberately excludes it: versions
// identify mutable state, keys identify construction input.
func (p *Plan[T]) Version() uint64 { return p.version.Load() }

// Bound reports whether the plan holds a resident value vector.
func (p *Plan[T]) Bound() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bound
}

// IncStats returns the incremental counters.
func (p *Plan[T]) IncStats() IncStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.inc
	s.Bound = p.bound
	s.Version = p.version.Load()
	s.Burst = p.burst
	s.Mode = "rerun"
	if !p.fdrift {
		switch p.imode {
		case incInt64:
			s.Mode = "fenwick-int64"
		case incFloat64:
			s.Mode = "fenwick-float64"
		}
	}
	return s
}

// Bind installs values as the plan's resident value vector (copied),
// refreshes the snapshot through the plan's engine and (re)builds the
// class trees. A successful Bind leaves every query O(1); a failed one
// (cancellation, engine fault) leaves the plan unbound, one version on.
// Binding replaces any previous resident state and clears float64
// drift.
func (p *Plan[T]) Bind(values []T) error { return p.BindCall(Call{}, values) }

// BindCall is Bind under per-call overrides (the refresh runs on the
// plan's engine, so contexts and fault hooks apply). A call whose
// context is already done when it takes the plan lock returns the
// context's error without touching the plan. With c.Pin set it binds
// only if the plan is at exactly that version, and otherwise returns a
// *VersionConflictError without touching the plan; a pinned bind that
// fails later has still moved the plan to version c.Pin+1.
func (p *Plan[T]) BindCall(c Call, values []T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	if err := ctxDone(p.cfg); err != nil {
		return err
	}
	if err := p.checkPin(c.Pin); err != nil {
		return err
	}
	return p.bindLocked(values)
}

//mp:locked
func (p *Plan[T]) bindLocked(values []T) error {
	if err := p.checkRun(values); err != nil {
		return err
	}
	if p.vals == nil {
		p.prepareIncremental()
	}
	copy(p.vals, values)
	p.bound = false
	p.fstale = false
	p.pending = 0
	p.fdrift = false
	if p.imode == incFloat64 {
		for _, v := range any(p.vals).([]float64) {
			if !core.FenwickFloat64Safe(v, p.fbound) {
				p.fdrift = true
				p.inc.Drifts++
				break
			}
		}
	}
	if err := p.refreshLocked(); err != nil {
		p.snapClean = false
		p.version.Add(1)
		return err
	}
	p.bound = true
	p.inc.Binds++
	p.version.Add(1)
	return nil
}

// prepareIncremental is the one-time (first Bind) setup: resident and
// snapshot storage, the maintenance tier, and — for the Fenwick tiers
// — the sorted index (reusing the plan's own when it has a single
// index row), each element's class position, the class trees' shared
// array, the envelope of the largest class and the burst.
//
//mp:locked
func (p *Plan[T]) prepareIncremental() {
	p.imode = incModeFor[T](p.op)
	if p.n > math.MaxInt32 {
		p.imode = incNone // counting-sort index is int32-addressed
	}
	p.vals = make([]T, p.n)
	p.snapMulti = make([]T, p.n)
	p.snapRed = make([]T, p.m)
	if p.imode == incNone {
		return
	}
	var shared bool
	if p.iperm, p.istart, shared = p.sortedIndex(); !shared {
		p.iperm = make([]int32, p.n)
		p.istart = make([]int32, p.m+1)
		core.BuildSortedIndexInto(p.iperm, p.istart, p.labels)
	}
	p.iloc = make([]classPos, p.n)
	largest := 0
	for c := range p.m {
		lo, hi := p.istart[c], p.istart[c+1]
		for k := lo; k < hi; k++ {
			p.iloc[p.iperm[k]] = classPos{class: int32(c), off: k - lo}
		}
		largest = max(largest, int(hi-lo))
	}
	p.ftree = make([]T, p.n)
	p.fbound = core.FenwickFloat64Bound(largest)
	p.burst = core.AutoUpdateBurst(p.n, largest, p.cfg)
}

// incModeFor classifies the maintenance tier: Fenwick needs an
// invertible fast sum at a kernel element type.
func incModeFor[T any](op core.Op[T]) incMode {
	if op.Fast != core.FastAdd {
		return incNone
	}
	var probe []T
	switch any(probe).(type) {
	case []int64:
		return incInt64
	case []float64:
		return incFloat64
	}
	return incNone
}

// Update replaces the resident value at index i. O(log len_c) on the
// Fenwick tiers, c being i's class (O(1) beyond the burst threshold),
// O(1) dirty-mark on the re-run tier. Every accepted update bumps
// Version.
//
//mp:hotpath
func (p *Plan[T]) Update(i int, v T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.update(i, v)
}

// UpdateCall is Update under per-call overrides. An update never runs
// the engine, so c.Hook does not apply. A call whose context (c.Ctx, or
// the plan's) is already done when it takes the plan lock returns the
// context's error without touching the plan. With c.Pin set, the
// update applies only if the plan is at exactly that version, and
// otherwise returns a *VersionConflictError without touching the plan.
//
//mp:hotpath
func (p *Plan[T]) UpdateCall(c Call, i int, v T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	if err := ctxDone(p.cfg); err != nil {
		return err
	}
	if err := p.checkPin(c.Pin); err != nil {
		return err
	}
	return p.update(i, v)
}

//mp:hotpath
//mp:locked
func (p *Plan[T]) update(i int, v T) error {
	if err := p.checkBound(); err != nil {
		return err
	}
	if err := p.checkElem(i); err != nil {
		return err
	}
	p.inc.Updates++
	p.snapClean = false
	switch vals := any(p.vals).(type) {
	case []int64:
		nv := any(v).(int64)
		old := vals[i]
		vals[i] = nv
		if p.imode == incInt64 && p.admitDelta() {
			loc := p.iloc[i]
			tr := any(p.ftree).([]int64)[p.istart[loc.class]:p.istart[loc.class+1]]
			core.FenwickAddInt64(tr, int(loc.off), nv-old)
		}
	case []float64:
		nv := any(v).(float64)
		old := vals[i]
		vals[i] = nv
		if p.imode == incFloat64 {
			if !p.fdrift && !core.FenwickFloat64Safe(nv, p.fbound) {
				p.fdrift = true
				p.inc.Drifts++
			}
			if !p.fdrift && p.admitDelta() {
				loc := p.iloc[i]
				tr := any(p.ftree).([]float64)[p.istart[loc.class]:p.istart[loc.class+1]]
				core.FenwickAddFloat64(tr, int(loc.off), nv-old)
			}
		}
	default:
		p.vals[i] = v
	}
	p.version.Add(1)
	return nil
}

// admitDelta reports whether one update's delta goes into the class
// trees, counting it if so, and trips the burst fallback once
// per-update maintenance stops paying for itself.
//
//mp:hotpath
//mp:locked
func (p *Plan[T]) admitDelta() bool {
	if p.fstale {
		return false
	}
	if p.pending >= p.burst {
		p.fstale = true
		return false
	}
	p.pending++
	p.inc.FenwickUpdates++
	return true
}

// QueryPrefix returns the multiprefix value at index i over the
// resident values — the combine of all earlier same-label values —
// bit-identical to a full recompute. O(1) from a clean snapshot,
// O(log len_c) from i's class tree, O(n) refresh otherwise.
//
//mp:hotpath
func (p *Plan[T]) QueryPrefix(i int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queryPrefix(i)
}

// QueryPrefixCall is QueryPrefix under per-call overrides (the hook
// binds when the query falls back to the engine re-run tier). A call
// whose context is already done when it takes the plan lock returns
// the context's error, whichever tier would have answered.
//
//mp:hotpath
func (p *Plan[T]) QueryPrefixCall(c Call, i int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	if err := ctxDone(p.cfg); err != nil {
		var zero T
		return zero, err
	}
	return p.queryPrefix(i)
}

//mp:hotpath
//mp:locked
func (p *Plan[T]) queryPrefix(i int) (T, error) {
	var zero T
	if err := p.checkBound(); err != nil {
		return zero, err
	}
	if err := p.checkElem(i); err != nil {
		return zero, err
	}
	if p.snapClean {
		p.inc.SnapshotQueries++
		return p.snapMulti[i], nil
	}
	if p.fenwickLive() {
		p.pending = 0
		p.inc.FenwickQueries++
		loc := p.iloc[i]
		lo, hi := p.istart[loc.class], p.istart[loc.class+1]
		switch tr := any(p.ftree).(type) {
		case []int64:
			return any(core.FenwickPrefixInt64(tr[lo:hi], int(loc.off))).(T), nil
		case []float64:
			return any(core.FenwickPrefixFloat64(tr[lo:hi], int(loc.off))).(T), nil
		}
	}
	if err := p.refreshLocked(); err != nil {
		return zero, err
	}
	p.inc.SnapshotQueries++
	return p.snapMulti[i], nil
}

// ReduceLabel returns label c's reduction (the combine of every
// resident value with that label), with the same cost tiers as
// QueryPrefix.
//
//mp:hotpath
func (p *Plan[T]) ReduceLabel(c int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reduceLabel(c)
}

// ReduceLabelCall is ReduceLabel under per-call overrides, with
// QueryPrefixCall's context rule.
//
//mp:hotpath
func (p *Plan[T]) ReduceLabelCall(call Call, c int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(call))
	if err := ctxDone(p.cfg); err != nil {
		var zero T
		return zero, err
	}
	return p.reduceLabel(c)
}

//mp:hotpath
//mp:locked
func (p *Plan[T]) reduceLabel(c int) (T, error) {
	var zero T
	if err := p.checkBound(); err != nil {
		return zero, err
	}
	if err := p.checkLabel(c); err != nil {
		return zero, err
	}
	if p.snapClean {
		p.inc.SnapshotQueries++
		return p.snapRed[c], nil
	}
	if p.fenwickLive() {
		p.pending = 0
		p.inc.FenwickQueries++
		lo, hi := p.istart[c], p.istart[c+1]
		switch tr := any(p.ftree).(type) {
		case []int64:
			return any(core.FenwickPrefixInt64(tr[lo:hi], int(hi-lo))).(T), nil
		case []float64:
			return any(core.FenwickPrefixFloat64(tr[lo:hi], int(hi-lo))).(T), nil
		}
	}
	if err := p.refreshLocked(); err != nil {
		return zero, err
	}
	p.inc.SnapshotQueries++
	return p.snapRed[c], nil
}

// Snapshot refreshes (if needed) and copies the full multiprefix
// state over the resident values into caller storage: multi (len n)
// and red (len m); either may be nil to skip. It returns the state
// version the copy corresponds to.
func (p *Plan[T]) Snapshot(multi, red []T) (uint64, error) {
	return p.SnapshotCall(Call{}, multi, red)
}

// SnapshotCall is Snapshot under per-call overrides, with
// QueryPrefixCall's context rule: a clean snapshot is not copied out
// after the call's context is done.
func (p *Plan[T]) SnapshotCall(c Call, multi, red []T) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	if err := ctxDone(p.cfg); err != nil {
		return 0, err
	}
	if err := p.checkBound(); err != nil {
		return 0, err
	}
	if multi != nil && len(multi) != p.n {
		return 0, fmt.Errorf("%w: snapshot multi has %d slots for %d elements", core.ErrBadInput, len(multi), p.n)
	}
	if red != nil && len(red) != p.m {
		return 0, fmt.Errorf("%w: snapshot red has %d slots for %d labels", core.ErrBadInput, len(red), p.m)
	}
	if !p.snapClean {
		if err := p.refreshLocked(); err != nil {
			return 0, err
		}
	}
	copy(multi, p.snapMulti)
	copy(red, p.snapRed)
	return p.version.Load(), nil
}

// fenwickLive reports whether the tree tier can answer: a Fenwick
// tier that has not drifted and whose trees still track the values.
//
//mp:locked
func (p *Plan[T]) fenwickLive() bool {
	return p.imode != incNone && !p.fdrift && !p.fstale
}

// refreshLocked is the full re-run tier: evaluate the resident values
// once through the plan's own engine (contexts, hooks and the auto
// plan's serial fallback all apply) into the snapshot storage, and
// bring the Fenwick tree back in sync.
//
//mp:locked
func (p *Plan[T]) refreshLocked() error {
	if err := p.evalSnapshot(); err != nil {
		return err
	}
	p.snapClean = true
	p.inc.Reruns++
	if p.imode != incNone && !p.fdrift {
		p.rebuildLocked()
	}
	return nil
}

// evalSnapshot evaluates the resident values into snapMulti and
// snapRed: a one-vector prefix batch whose destination is snapMulti and
// whose reduction scratch is red, so a bound plan holds no n-slot Run
// result and a later Run, which writes multi, leaves the snapshot whole.
//
//mp:locked
func (p *Plan[T]) evalSnapshot() error {
	dsts, srcs := p.one(p.snapMulti, p.vals)
	err := p.batch(dsts, srcs, true)
	p.clearOne()
	if err != nil {
		return err
	}
	copy(p.snapRed, p.red)
	return nil
}

// rebuildLocked regathers every class tree from the resident values,
// class by class — the O(n) amortization target of the burst
// threshold.
//
//mp:locked
func (p *Plan[T]) rebuildLocked() {
	switch tr := any(p.ftree).(type) {
	case []int64:
		vals := any(p.vals).([]int64)
		for c := range p.m {
			lo, hi := p.istart[c], p.istart[c+1]
			core.FenwickGatherBuildInt64(tr[lo:hi], vals, p.iperm[lo:hi])
		}
	case []float64:
		vals := any(p.vals).([]float64)
		for c := range p.m {
			lo, hi := p.istart[c], p.istart[c+1]
			core.FenwickGatherBuildFloat64(tr[lo:hi], vals, p.iperm[lo:hi])
		}
	}
	p.fstale = false
	p.pending = 0
	p.inc.Rebuilds++
}

// checkPin enforces a mutation's Call.Pin. Callers hold p.mu, so no
// other mutation can land between the check and the write.
//
//mp:locked
func (p *Plan[T]) checkPin(pin uint64) error {
	if pin != 0 {
		if cur := p.version.Load(); cur != pin {
			return &VersionConflictError{Pin: pin, Version: cur}
		}
	}
	return nil
}

//mp:locked
func (p *Plan[T]) checkBound() error {
	if p.closed {
		return fmt.Errorf("%w: call on a closed Plan", core.ErrBadInput)
	}
	if !p.bound {
		return ErrNotBound
	}
	return nil
}

//mp:locked
func (p *Plan[T]) checkElem(i int) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("%w: index %d out of range [0, %d)", core.ErrBadInput, i, p.n)
	}
	return nil
}

//mp:locked
func (p *Plan[T]) checkLabel(c int) error {
	if c < 0 || c >= p.m {
		return fmt.Errorf("%w: label %d out of range [0, %d)", core.ErrBadInput, c, p.m)
	}
	return nil
}
