package server

import (
	"bytes"
	"container/list"
	"context"
	"hash/maphash"
	"sync"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// planCache is the service's single-flight LRU cache of prepared
// plans. Plan construction is the expensive, label-dependent half of a
// multiprefix (validation, counting sort, shard decomposition, team
// spawn); repeat traffic re-sends the same label vector, so the
// service builds each plan once and evaluates many requests against
// it.
//
// Three robustness properties shape the implementation:
//
//   - Single-flight: concurrent requests for the same key share one
//     construction — the first request builds while the rest wait on
//     the entry's ready latch — so a stampede of identical cold
//     requests costs one build, not N.
//   - Pinning: an entry is refcounted by the requests (and ladder
//     retries) using its plan. Eviction only marks an entry dead; the
//     plan's worker team is closed when the last pin drops, never
//     under a request still running on it.
//   - Collision honesty: the 64-bit label digest in backend.Key is a
//     lookup accelerator, not an identity. A hit re-checks the full
//     label vector against the plan's own labels (the cache keeps no
//     copy of its own), waiting first for an entry still building; a
//     digest collision gets a private, uncached plan rather than
//     another key's answers.
//
// A request's labels reach the cache in one of two forms
// (acquireLabels). Labels the scanner parsed to int32, most often a
// miss's, become a backend.LabelSet before the lookup: checked against
// m, their classes counted and their digest taken in one pass, which is
// all a miss needs to build its plan on them. Labels json.Unmarshal
// decoded to []int, most often a bound plan's /v1/update and /v1/query
// traffic, are only checked and digested (backend.LabelKey): a digest
// hit compares them with the plan's int32 labels as they are, and only
// a miss narrows them and counts their classes.
//
// A second index finds an entry by a compute request's labels array as
// the wire carried it, so that a warm request neither parses nor
// digests its labels (acquireText). Its hash is likewise only a lookup
// accelerator: a hit needs the request's text equal, byte for byte, to
// the text the entry stores.
//
// An auto plan is built on the one-shot rule's engine, with no trial
// (backend.RulePlan): most of a cold plan's cost would be the trial,
// and a plan evicted before its second use never earns it back. The
// request that makes an auto entry's trialHits-th hit runs the trial
// (Plan.Promote) on its own goroutine, outside the cache lock and at
// most one at a time per cache, and the plan switches engine in place
// if the trial says so.
type planCache struct {
	mu      sync.Mutex
	cap     int
	workers int
	entries map[backend.Key]*planEntry
	texts   map[textKey]*planEntry // entry.text != nil exactly when texts[entry.textKey] == entry
	seed    maphash.Seed
	lru     *list.List // of *planEntry, front = most recently used
	st      *stats
	// bufs lends a trial its vectors.
	bufs *reqBufs
	// trialRunning is set while a request runs an entry's trial.
	trialRunning bool
}

// trialHits is the cache hit at which an auto entry runs its trial. The
// build is not a hit, so the trial runs at the plan's fifth request:
// by then the plan has served four, and a trial that picks the faster
// engine pays for itself over the many it is still likely to serve.
const trialHits = 4

// textKey indexes an entry by a labels array's wire text: the plan
// identity the text leaves out, and a maphash of the text under the
// process's own seed, which is never persisted.
type textKey struct {
	backend, op string
	m           int
	sum         uint64
}

// planEntry is one cached plan, pinned by every request using it. Its
// labels are the plan's (plan.Labels).
type planEntry struct {
	key   backend.Key
	op    core.Op[int64]
	plan  *backend.Plan[int64]
	err   error
	ready chan struct{} // closed when plan/err are set (single-flight latch)
	refs  int
	dead  bool // evicted or errored: close plan when refs hits zero
	elem  *list.Element
	// text is the last labels text a compute request found this entry
	// by, which parses to the plan's labels; textKey is where it is
	// indexed. nil when none is, and always once the entry is dead.
	text    []byte
	textKey textKey
	// hits counts the entry's cache hits; tried is set once a request
	// has taken the entry's trial.
	hits  int
	tried bool
}

func newPlanCache(capacity, workers int, st *stats, bufs *reqBufs) *planCache {
	return &planCache{
		cap:     capacity,
		workers: workers,
		entries: make(map[backend.Key]*planEntry),
		texts:   make(map[textKey]*planEntry),
		seed:    maphash.MakeSeed(),
		lru:     list.New(),
		st:      st,
		bufs:    bufs,
	}
}

// acquireLabels acquires the plan of labels over [0, m): the one path
// of the compute routes' labels, parsed to int32 or decoded by
// json.Unmarshal, of /v1/update, /v1/query and the -warm file. Labels
// that do not check are the error, and nothing is pinned. A []int32
// vector becomes the plan's own labels on a miss, so the caller must
// not change it afterwards.
func acquireLabels[L core.Label](c *planCache, ctx context.Context, backendName string, op core.Op[int64], labels []L, m int) (*planEntry, error) {
	if parsed, ok := any(labels).([]int32); ok {
		set, err := backend.NewLabelSet(parsed, m)
		if err != nil {
			return nil, err
		}
		return acquire(c, ctx, backendName, op, set.Key(backendName, op.Name), parsed, &set)
	}
	key, err := backend.LabelKey(backendName, op.Name, labels, m)
	if err != nil {
		return nil, err
	}
	return acquire(c, ctx, backendName, op, key, labels, nil)
}

// acquire returns a pinned entry for labels under key whose plan is
// built and ready. set is the labels' set, or nil when a build is to
// make it. The caller must release the entry exactly once, after its
// last use of entry.plan. On error nothing is pinned. A hit may run the
// entry's trial under ctx before it returns (see hitLocked).
func acquire[L core.Label](c *planCache, ctx context.Context, backendName string, op core.Op[int64], key backend.Key, labels []L, set *backend.LabelSet) (*planEntry, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.err == nil && sameLabels(e.plan.Labels(), labels) {
			c.mu.Lock()
			trial := c.hitLocked(e)
			c.mu.Unlock()
			if trial {
				c.promote(ctx, e)
			}
			return e, nil
		}
		// A digest collision between distinct label vectors, or a build
		// that failed on labels this caller cannot compare with its own:
		// serve from a private plan, never another vector's plan or
		// error.
		c.release(e)
		return buildUncached(c, key, op, labels, set)
	}
	e := &planEntry{
		key:   key,
		op:    op,
		ready: make(chan struct{}),
		refs:  1,
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.st.cacheMisses.Add(1)
	c.evictLocked()
	c.mu.Unlock()

	plan, err := build(c, backendName, op, labels, key.M, set)
	c.mu.Lock()
	e.plan, e.err = plan, err
	if err != nil {
		// Do not cache failures: a later identical request retries the
		// build (the input may be the same, but transient conditions —
		// memory pressure — need not be).
		c.dropLocked(e)
	}
	close(e.ready)
	c.mu.Unlock()
	if err != nil {
		c.release(e)
		return nil, err
	}
	return e, nil
}

// textKey returns the text-index key of a labels text under a resolved
// backend, operator name and label space.
func (c *planCache) textKey(backendName, opName string, m int, text []byte) textKey {
	return textKey{backend: backendName, op: opName, m: m, sum: maphash.Bytes(c.seed, text)}
}

// acquireText pins the entry indexed under k whose stored text equals
// text byte for byte, or returns nil. Such an entry is built, and its
// labels are what text parses to, with n and the label range already
// checked, so the caller takes them from the entry and skips the
// parse, the digest and the label compare of acquire. A hit counts as
// a cache hit and as a text hit, and may run the entry's trial under
// ctx before it returns.
func (c *planCache) acquireText(ctx context.Context, k textKey, text []byte) *planEntry {
	c.mu.Lock()
	e := c.texts[k]
	if e == nil || !bytes.Equal(e.text, text) {
		c.mu.Unlock()
		return nil
	}
	e.refs++
	c.lru.MoveToFront(e.elem)
	c.st.textHits.Add(1)
	trial := c.hitLocked(e)
	c.mu.Unlock()
	if trial {
		c.promote(ctx, e)
	}
	return e
}

// hitLocked counts one cache hit on e, which the caller has pinned, and
// reports whether the caller runs e's trial: e is a live auto entry at
// its trialHits-th hit or later whose trial no request has taken, and
// no other trial is running (a hit that finds one running leaves the
// trial to a later hit). Callers hold c.mu.
func (c *planCache) hitLocked(e *planEntry) bool {
	c.st.cacheHits.Add(1)
	e.hits++
	if e.key.Backend != "auto" || e.hits < trialHits || e.tried || e.dead || c.trialRunning {
		return false
	}
	e.tried, c.trialRunning = true, true
	return true
}

// promote runs e's trial on the calling goroutine, outside the cache
// lock; the caller's pin keeps the plan open. The trial polls ctx, the
// request's own, and runs on two vectors from the server's vector
// lists, released once it has returned. A trial that ran to a pick is
// counted, and so is a switch of engine.
func (c *planCache) promote(ctx context.Context, e *planEntry) {
	n := e.plan.N()
	values, dst := c.bufs.getVec(n), c.bufs.getVec(n)
	ok, switched := e.plan.Promote(ctx, values, dst)
	c.bufs.putVec(values)
	c.bufs.putVec(dst)
	c.mu.Lock()
	c.trialRunning = false
	c.mu.Unlock()
	if ok {
		c.st.autoTrials.Add(1)
		if switched {
			c.st.autoSwitches.Add(1)
		}
	}
}

// storeText indexes e under k by a copy of text, which must parse to
// the plan's labels; the copy does not alias the request body. One text per
// entry: the latest replaces the entry's older text and takes k from
// any other entry. A dead entry (evicted, or a private collision plan)
// is not indexed.
func (c *planCache) storeText(e *planEntry, k textKey, text []byte) {
	own := bytes.Clone(text)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.dead {
		return
	}
	c.dropTextLocked(e)
	if old := c.texts[k]; old != nil {
		c.dropTextLocked(old)
	}
	e.text, e.textKey = own, k
	c.texts[k] = e
}

// dropTextLocked removes e's text from the text index.
func (c *planCache) dropTextLocked(e *planEntry) {
	if e.text != nil {
		delete(c.texts, e.textKey)
		e.text = nil
	}
}

// release drops one pin. The last pin of a dead entry closes its plan.
func (c *planCache) release(e *planEntry) {
	c.mu.Lock()
	e.refs--
	var toClose *backend.Plan[int64]
	if e.dead && e.refs == 0 && e.plan != nil {
		toClose = e.plan
		e.plan = nil
	}
	c.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// closeAll empties the cache, closing every unpinned plan now and
// marking pinned ones for close on their final release.
func (c *planCache) closeAll() {
	c.mu.Lock()
	var toClose []*backend.Plan[int64]
	for _, e := range c.entries {
		c.dropLocked(e)
		if e.refs == 0 && e.plan != nil {
			toClose = append(toClose, e.plan)
			e.plan = nil
		}
	}
	c.mu.Unlock()
	for _, p := range toClose {
		p.Close()
	}
}

// plans reports the number of live cached entries.
func (c *planCache) plans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// evictLocked trims the LRU tail down to capacity, skipping pinned
// entries (the in-flight bound already limits how many plans can be
// pinned at once, so the overflow is bounded too).
func (c *planCache) evictLocked() {
	for c.lru.Len() > c.cap {
		var victim *planEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*planEntry); e.refs == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.dropLocked(victim)
		c.st.cacheEvictions.Add(1)
		// refs == 0 and we hold the lock, so nobody can pin it anymore:
		// close now. The entry is fully built (a building entry is
		// pinned by its builder).
		if victim.plan != nil {
			victim.plan.Close()
			victim.plan = nil
		}
	}
}

// dropLocked unlinks an entry from the map, the text index and the LRU
// list and marks it dead. Idempotent.
func (c *planCache) dropLocked(e *planEntry) {
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
	}
	c.dropTextLocked(e)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	e.dead = true
}

// sameLabels reports whether labels, each in the plan's int32 range, are
// the plan's labels.
func sameLabels[L core.Label](plan []int32, labels []L) bool {
	if len(plan) != len(labels) {
		return false
	}
	for i, l := range labels {
		if plan[i] != int32(l) {
			return false
		}
	}
	return true
}

// buildUncached serves the digest-collision path: a private plan owned
// by this request alone, closed on release.
func buildUncached[L core.Label](c *planCache, key backend.Key, op core.Op[int64], labels []L, set *backend.LabelSet) (*planEntry, error) {
	c.st.cacheMisses.Add(1)
	plan, err := build(c, key.Backend, op, labels, key.M, set)
	if err != nil {
		return nil, err
	}
	e := &planEntry{
		key:   key,
		op:    op,
		plan:  plan,
		ready: make(chan struct{}),
		refs:  1,
		dead:  true, // release closes it
	}
	close(e.ready)
	return e, nil
}

// build builds a plan for the cache over labels in [0, m), whose label
// set is set, or made here when set is nil; the plan keeps the set's
// labels. An auto plan starts on the rule's engine; its trial waits for
// the plan's trialHits-th hit.
func build[L core.Label](c *planCache, backendName string, op core.Op[int64], labels []L, m int, set *backend.LabelSet) (*backend.Plan[int64], error) {
	if set == nil {
		s, err := backend.NewLabelSet(labels, m)
		if err != nil {
			return nil, err
		}
		set = &s
	}
	cfg := core.Config{Workers: c.workers}
	if backendName == "auto" {
		return backend.RulePlan(op, *set, cfg)
	}
	return backend.PlanSet(backendName, op, *set, cfg)
}
