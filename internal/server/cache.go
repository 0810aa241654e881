package server

import (
	"bytes"
	"container/list"
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
// A second index finds an entry by a compute request's labels array as
// the wire carried it, so that a warm request neither parses nor
// digests its labels (acquireText). Its hash is likewise only a lookup
// accelerator: a hit needs the request's text equal, byte for byte, to
// the text the entry stores.
type planCache struct {
	mu      sync.Mutex
	cap     int
	workers int
	entries map[backend.Key]*planEntry
	texts   map[textKey]*planEntry // entry.text != nil exactly when texts[entry.textKey] == entry
	seed    maphash.Seed
	lru     *list.List // of *planEntry, front = most recently used
	st      *stats
}

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
}

func newPlanCache(capacity, workers int, st *stats) *planCache {
	return &planCache{
		cap:     capacity,
		workers: workers,
		entries: make(map[backend.Key]*planEntry),
		texts:   make(map[textKey]*planEntry),
		seed:    maphash.MakeSeed(),
		lru:     list.New(),
		st:      st,
	}
}

// acquire returns a pinned entry whose plan is built and ready. The
// caller must release it exactly once, after its last use of
// entry.plan. On error nothing is pinned.
func (c *planCache) acquire(backendName string, op core.Op[int64], labels []int, m int) (*planEntry, error) {
	key := backend.KeyFor(backendName, op.Name, labels, m)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.err == nil && equalLabels(e.plan.Labels(), labels) {
			c.st.cacheHits.Add(1)
			return e, nil
		}
		// A digest collision between distinct label vectors, or a build
		// that failed on labels this caller cannot compare with its own:
		// serve from a private plan, never another vector's plan or
		// error.
		c.release(e)
		return c.buildUncached(key, op, labels, m)
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

	plan, err := c.build(backendName, op, labels, m)
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
// a cache hit and as a text hit.
func (c *planCache) acquireText(k textKey, text []byte) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.texts[k]
	if e == nil || !bytes.Equal(e.text, text) {
		return nil
	}
	e.refs++
	c.lru.MoveToFront(e.elem)
	c.st.cacheHits.Add(1)
	c.st.textHits.Add(1)
	return e
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

// buildUncached serves the digest-collision path: a private plan owned
// by this request alone, closed on release.
func (c *planCache) buildUncached(key backend.Key, op core.Op[int64], labels []int, m int) (*planEntry, error) {
	c.st.cacheMisses.Add(1)
	plan, err := c.build(key.Backend, op, labels, m)
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

func (c *planCache) build(backendName string, op core.Op[int64], labels []int, m int) (*backend.Plan[int64], error) {
	be, err := backend.Open[int64](backendName)
	if err != nil {
		return nil, err
	}
	return be.Plan(op, labels, m, core.Config{Workers: c.workers})
}

// equalLabels reports whether a plan's int32 labels equal a request's.
func equalLabels(plan []int32, req []int) bool {
	if len(plan) != len(req) {
		return false
	}
	for i, l := range req {
		if int(plan[i]) != l {
			return false
		}
	}
	return true
}
