package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// Options tunes the service. The zero value selects production-shaped
// defaults; see withDefaults for the numbers.
type Options struct {
	// Backend is the default plan backend for requests that do not
	// name one: auto, serial or chunked, the backends the service
	// serves. A request resolving to another (sorted, sharded,
	// spinetree, parallel, vector, pram) gets the typed 400
	// unknown_backend.
	Backend string
	// Workers is the per-plan engine worker count; 0 = GOMAXPROCS.
	Workers int
	// MaxInFlight bounds concurrently admitted compute requests;
	// excess load is shed with 429. 0 = 4x GOMAXPROCS.
	MaxInFlight int
	// MaxBody bounds the request body in bytes (413 beyond it).
	MaxBody int64
	// MaxN / MaxM bound the problem shape a request may ask for.
	MaxN, MaxM int
	// DefaultDeadline applies when a request sets no deadline_ms;
	// MaxDeadline clamps what a request may ask for.
	DefaultDeadline, MaxDeadline time.Duration
	// BatchCap bounds the vectors fused into one round.
	BatchCap int
	// PlanCacheCap bounds the plan cache (LRU beyond it).
	PlanCacheCap int
	// RetryAfter is the hint returned with 429/503 responses.
	RetryAfter time.Duration
	// ClientRPS > 0 arms per-client fairness: each client (X-Client-ID
	// header, else the remote host) gets a token bucket refilling at
	// ClientRPS requests per second; requests beyond it are shed with
	// 429 + Retry-After before any work is admitted, independently of
	// the global in-flight pool. 0 disables the quota.
	ClientRPS float64
	// ClientBurst is the bucket capacity when ClientRPS is armed;
	// 0 = 2x ClientRPS (minimum 1).
	ClientBurst int
	// ChaosPanicEvery > 0 arms chaos mode: every Nth request carries a
	// fault hook that panics inside one engine combine, exercising the
	// degradation ladder in production traffic shape. ChaosCancelEvery
	// likewise cancels every Nth request's context at admission.
	ChaosPanicEvery, ChaosCancelEvery int
	// ChaosSeed makes chaos injection replayable.
	ChaosSeed int64
	// NoSerialRetry disables the ladder's serial rung (tests).
	NoSerialRetry bool
}

func (o Options) withDefaults() Options {
	if o.Backend == "" {
		o.Backend = "auto"
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 64 << 20
	}
	if o.MaxN <= 0 {
		o.MaxN = 1 << 21
	}
	if o.MaxM <= 0 {
		o.MaxM = 1 << 18
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 2 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 30 * time.Second
	}
	if o.BatchCap <= 0 {
		o.BatchCap = 16
	}
	if o.PlanCacheCap <= 0 {
		o.PlanCacheCap = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.ClientRPS > 0 && o.ClientBurst <= 0 {
		o.ClientBurst = int(2 * o.ClientRPS)
		if o.ClientBurst < 1 {
			o.ClientBurst = 1
		}
	}
	return o
}

// stats is the server's atomic counter set.
type stats struct {
	requests         atomic.Uint64
	ok               atomic.Uint64
	errored          atomic.Uint64
	shed             atomic.Uint64
	quotaShed        atomic.Uint64
	rejectedDraining atomic.Uint64
	badInput         atomic.Uint64
	deadlineExceeded atomic.Uint64
	canceled         atomic.Uint64
	enginePanics     atomic.Uint64
	serialFallbacks  atomic.Uint64
	fusedRounds      atomic.Uint64
	fusedMembers     atomic.Uint64
	splitRounds      atomic.Uint64
	cacheHits        atomic.Uint64
	textHits         atomic.Uint64
	cacheMisses      atomic.Uint64
	cacheEvictions   atomic.Uint64
	chaosPanics      atomic.Uint64
	chaosCancels     atomic.Uint64
	inFlight         atomic.Int64
	updateRequests   atomic.Uint64
	queryRequests    atomic.Uint64
	updatesApplied   atomic.Uint64
	versionConflicts atomic.Uint64
	notBound         atomic.Uint64
	warmedPlans      atomic.Uint64
	autoTrials       atomic.Uint64
	autoSwitches     atomic.Uint64
}

// StatsSnapshot is the JSON shape of /v1/stats.
type StatsSnapshot struct {
	Requests         uint64 `json:"requests"`
	OK               uint64 `json:"ok"`
	Errors           uint64 `json:"errors"`
	Shed             uint64 `json:"shed"`
	QuotaShed        uint64 `json:"quota_shed"`
	RejectedDraining uint64 `json:"rejected_draining"`
	BadInput         uint64 `json:"bad_input"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	Canceled         uint64 `json:"canceled"`
	EnginePanics     uint64 `json:"engine_panics"`
	SerialFallbacks  uint64 `json:"serial_fallbacks"`
	FusedRounds      uint64 `json:"fused_rounds"`
	FusedMembers     uint64 `json:"fused_members"`
	SplitRounds      uint64 `json:"split_rounds"`
	CacheHits        uint64 `json:"cache_hits"`
	// LabelTextHits counts the cache hits found by the labels array's
	// wire bytes, without parsing it (a subset of CacheHits).
	LabelTextHits    uint64 `json:"label_text_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	CacheEvictions   uint64 `json:"cache_evictions"`
	CachePlans       int    `json:"cache_plans"`
	ChaosPanics      uint64 `json:"chaos_panics"`
	ChaosCancels     uint64 `json:"chaos_cancels"`
	InFlight         int64  `json:"in_flight"`
	Draining         bool   `json:"draining"`
	UpdateRequests   uint64 `json:"update_requests"`
	QueryRequests    uint64 `json:"query_requests"`
	UpdatesApplied   uint64 `json:"updates_applied"`
	VersionConflicts uint64 `json:"version_conflicts"`
	NotBound         uint64 `json:"not_bound"`
	WarmedPlans      uint64 `json:"warmed_plans"`
	Warming          bool   `json:"warming"`
	// AutoTrials counts the auto plans' trials that ran to a pick, each
	// at a plan's trialHits-th cache hit; AutoSwitches counts the ones
	// whose pick changed the plan's engine.
	AutoTrials   uint64 `json:"auto_trials"`
	AutoSwitches uint64 `json:"auto_switches"`
}

// Server is the multiprefix service. Construct with New, mount
// Handler on an http.Server, call Drain when shutting down (before
// http.Server.Shutdown) and Close after in-flight requests finish.
type Server struct {
	opts  Options
	st    stats
	cache *planCache
	coal  *coalescer
	slots chan struct{}
	// limiter is the per-client quota; nil when ClientRPS is 0.
	limiter  *clientLimiter
	base     context.Context
	stop     context.CancelFunc
	draining atomic.Bool
	// warming holds /readyz at 503 while BeginWarm/WarmFromFile
	// pre-build persisted plans (see warm.go).
	warming atomic.Bool
	seq     atomic.Uint64
	mux     *http.ServeMux
}

// New builds a Server from opts (zero value = defaults).
func New(opts Options) *Server {
	s := &Server{opts: opts.withDefaults()}
	s.cache = newPlanCache(s.opts.PlanCacheCap, s.opts.Workers, &s.st)
	s.coal = newCoalescer(s)
	s.slots = make(chan struct{}, s.opts.MaxInFlight)
	if s.opts.ClientRPS > 0 {
		s.limiter = newClientLimiter(s.opts.ClientRPS, s.opts.ClientBurst)
	}
	s.base, s.stop = context.WithCancel(context.Background()) //mp:nolint process-lifetime base context; per-request ctx derives from it and Shutdown cancels it
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/multiprefix", s.handleCompute(false, false))
	s.mux.HandleFunc("/v1/multireduce", s.handleCompute(true, false))
	s.mux.HandleFunc("/v1/multiprefix/batch", s.handleCompute(false, true))
	s.mux.HandleFunc("/v1/multireduce/batch", s.handleCompute(true, true))
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	return s
}

// Handler is the service's HTTP mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into draining: /readyz turns 503 and new
// compute requests are rejected typed, while requests already
// admitted run to completion. Call before http.Server.Shutdown so the
// load balancer stops sending traffic that Shutdown would hang on.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close releases the service's resources: coalescer runners are
// waited out and every cached plan's worker team is closed. Call
// after http.Server.Shutdown has returned (no requests in flight).
func (s *Server) Close() {
	s.draining.Store(true)
	s.stop()
	s.coal.wait()
	s.cache.closeAll()
}

// Stats returns a point-in-time counter snapshot.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		Requests:         s.st.requests.Load(),
		OK:               s.st.ok.Load(),
		Errors:           s.st.errored.Load(),
		Shed:             s.st.shed.Load(),
		QuotaShed:        s.st.quotaShed.Load(),
		RejectedDraining: s.st.rejectedDraining.Load(),
		BadInput:         s.st.badInput.Load(),
		DeadlineExceeded: s.st.deadlineExceeded.Load(),
		Canceled:         s.st.canceled.Load(),
		EnginePanics:     s.st.enginePanics.Load(),
		SerialFallbacks:  s.st.serialFallbacks.Load(),
		FusedRounds:      s.st.fusedRounds.Load(),
		FusedMembers:     s.st.fusedMembers.Load(),
		SplitRounds:      s.st.splitRounds.Load(),
		CacheHits:        s.st.cacheHits.Load(),
		LabelTextHits:    s.st.textHits.Load(),
		CacheMisses:      s.st.cacheMisses.Load(),
		CacheEvictions:   s.st.cacheEvictions.Load(),
		CachePlans:       s.cache.plans(),
		ChaosPanics:      s.st.chaosPanics.Load(),
		ChaosCancels:     s.st.chaosCancels.Load(),
		InFlight:         s.st.inFlight.Load(),
		Draining:         s.draining.Load(),
		UpdateRequests:   s.st.updateRequests.Load(),
		QueryRequests:    s.st.queryRequests.Load(),
		UpdatesApplied:   s.st.updatesApplied.Load(),
		VersionConflicts: s.st.versionConflicts.Load(),
		NotBound:         s.st.notBound.Load(),
		WarmedPlans:      s.st.warmedPlans.Load(),
		Warming:          s.warming.Load(),
		AutoTrials:       s.st.autoTrials.Load(),
		AutoSwitches:     s.st.autoSwitches.Load(),
	}
}

// handleCompute builds the handler for one of the four compute
// endpoints. The request pipeline: drain gate -> admission -> decode
// and validate -> deadline -> plan cache -> chaos arm -> coalescer ->
// wait -> respond. A canonical body's plan is looked up by the bytes
// of its labels array first, and only a miss parses them.
func (s *Server) handleCompute(reduce, batchEP bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.st.requests.Add(1)
		if r.Method != http.MethodPost {
			s.writeError(w, http.StatusMethodNotAllowed, kindMethod, "POST only")
			return
		}
		// Admission: a bounded in-flight pool, shedding instead of
		// queueing — an overloaded multiprefix service must say so
		// before the work lands on the teams, not time out after.
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()

		var (
			req   computeRequest
			entry *planEntry // pinned by the text index or by acquire
			items []*pending
		)
		wb, ok := s.readRequest(w, r)
		if !ok {
			return
		}
		// Every exit, once the response is written, hands back what the
		// request took: its body's buffer, its plan pin, and its value
		// and result vectors, which no engine touches once the handler
		// has every vector's outcome.
		defer func() {
			if wb != nil {
				putWireBuf(wb)
			}
			if entry != nil {
				s.cache.release(entry)
			}
			req.putVectors()
			for _, it := range items {
				putVec(it.dst)
			}
		}()
		if err := decodeCompute(wb.b, &req, s.opts.MaxN); err != nil {
			s.badJSON(w, err)
			return
		}
		// Per-request deadline, propagated into the engines via the
		// plan Call context, and into the trial a cache hit may run.
		ctx, cancel := s.requestCtx(r.Context(), req.DeadlineMS)
		defer cancel()
		deadline, _ := ctx.Deadline()
		var tk textKey
		if req.labelText != nil {
			if entry, tk = s.findText(ctx, &req); entry != nil {
				req.labelText = nil
			} else if err := parseLabelText(wb.b, &req, s.opts.MaxN); err != nil {
				s.badJSON(w, err)
				return
			}
		}
		op, backendName, ok := s.resolvePlanIdent(w, req.Op, req.Backend, req.longest(), req.M)
		if !ok {
			return
		}
		n := len(req.Labels)
		if entry != nil {
			n = entry.plan.N() // a text hit: the labels were never parsed
		}
		var vectors [][]int64
		if batchEP {
			if len(req.Batch) == 0 {
				s.writeError(w, http.StatusBadRequest, kindBadInput, "batch endpoint needs a non-empty batch")
				return
			}
			vectors = req.Batch
		} else {
			vectors = [][]int64{req.Values}
		}
		for i, v := range vectors {
			if len(v) != n {
				s.writeError(w, http.StatusBadRequest, kindBadInput,
					fmt.Sprintf("vector %d has %d values for %d labels", i, len(v), n))
				return
			}
		}

		if entry == nil {
			var err error
			if entry, err = s.cache.acquire(ctx, backendName, op, req.Labels, req.M); err != nil {
				status, kind := classify(err)
				s.writeError(w, status, kind, err.Error())
				return
			}
			if req.labelText != nil {
				s.cache.storeText(entry, tk, req.labelText)
			}
		}
		// The label text was the last alias of the body: hand its
		// buffer back before the wait, for this response's encoding.
		req.labelText = nil
		putWireBuf(wb)
		wb = nil

		cctx, hook := s.armChaos(ctx, n)
		dstLen := n
		if reduce {
			dstLen = req.M
		}
		items = make([]*pending, len(vectors))
		for i, src := range vectors {
			items[i] = &pending{
				src:      src,
				dst:      getVec(dstLen), // every service engine writes all of it
				ctx:      cctx,
				hook:     hook,
				deadline: deadline,
				done:     make(chan outcome, 1),
			}
		}
		// One submission keeps the request's vectors together: on an
		// idle plan they run as one round on this goroutine.
		s.coal.submit(entry, reduce, req.PinVersion, items...)
		outs := make([]outcome, len(items))
		for i, it := range items {
			outs[i] = <-it.done
		}

		// A batch answers per vector, unless its context ended before
		// any vector answered: then it failed as a request and gets the
		// single-vector routes' typed status (504 on its deadline), not
		// a 200 that carries only errors.
		if batchEP && (cctx.Err() == nil || slices.ContainsFunc(outs, func(o outcome) bool { return o.err == nil })) {
			s.respondBatch(w, backendName, req.Op, n, req.M, reduce, items, outs)
			return
		}
		if outs[0].err != nil {
			status, kind := classify(outs[0].err)
			if status == http.StatusServiceUnavailable {
				s.retryAfter(w)
			}
			s.writeError(w, status, kind, outs[0].err.Error())
			return
		}
		resp := computeResponse{
			Backend:    backendName,
			Op:         req.Op,
			N:          n,
			M:          req.M,
			Reductions: items[0].dst,
			Coalesced:  outs[0].coalesced,
		}
		if !reduce {
			// The fused engines produce exactly the requested shape:
			// the multiprefix endpoint returns the prefix vector, the
			// multireduce endpoint the per-label totals.
			resp.Multi = items[0].dst
			resp.Reductions = nil
		}
		if outs[0].fallback {
			resp.Fallback = "serial"
		}
		s.st.ok.Add(1)
		writeWire(w, &resp, appendCompute)
	}
}

// findText looks req's labels text up in the plan cache's text index
// under the plan identity req names. It returns the pinned entry on a
// hit, and otherwise the key to index the text under once the plan is
// pinned. A request naming an operator or backend the service does not
// serve is not looked up: it fails validation once its labels have
// parsed, as it did before the index.
func (s *Server) findText(ctx context.Context, req *computeRequest) (*planEntry, textKey) {
	op, ok := ops[req.Op]
	backendName := req.Backend
	if backendName == "" {
		backendName = s.opts.Backend
	}
	if !ok || !served(backendName) {
		return nil, textKey{}
	}
	k := s.cache.textKey(backendName, op.Name, req.M, req.labelText)
	return s.cache.acquireText(ctx, k, req.labelText), k
}

// armChaos applies the server's chaos configuration to one request:
// every ChaosPanicEvery-th request carries a seeded panic hook, every
// ChaosCancelEvery-th an already-cancelled context. Chaos requests
// exercise the real degradation ladder under production traffic.
func (s *Server) armChaos(ctx context.Context, n int) (context.Context, core.FaultHook) {
	if s.opts.ChaosPanicEvery <= 0 && s.opts.ChaosCancelEvery <= 0 {
		return ctx, nil
	}
	seq := s.seq.Add(1)
	var hook core.FaultHook
	if e := s.opts.ChaosPanicEvery; e > 0 && seq%uint64(e) == 0 {
		hook = fault.Seeded(s.opts.ChaosSeed+int64(seq), n, "")
		s.st.chaosPanics.Add(1)
	}
	if e := s.opts.ChaosCancelEvery; e > 0 && seq%uint64(e) == 0 {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		ctx = cctx
		s.st.chaosCancels.Add(1)
	}
	return ctx, hook
}

func (s *Server) respondBatch(w http.ResponseWriter, backendName, opName string, n, m int, reduce bool, items []*pending, outs []outcome) {
	resp := batchResponse{
		Backend: backendName,
		Op:      opName,
		N:       n,
		M:       m,
		Results: make([]batchItem, len(items)),
	}
	for i, it := range items {
		if outs[i].err != nil {
			_, kind := classify(outs[i].err)
			resp.Results[i] = batchItem{Error: &apiError{Kind: kind, Message: outs[i].err.Error()}}
			resp.Failed++
			continue
		}
		item := batchItem{Coalesced: outs[i].coalesced}
		if reduce {
			item.Reductions = it.dst
		} else {
			item.Multi = it.dst
		}
		if outs[i].fallback {
			item.Fallback = "serial"
		}
		resp.Results[i] = item
	}
	s.st.ok.Add(1)
	writeWire(w, &resp, appendBatch)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.warming.Load() {
		// Cache warming in progress: traffic admitted now would pay the
		// cold plan builds the warm pass exists to absorb.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "warming"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.opts.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) writeError(w http.ResponseWriter, status int, kind, msg string) {
	s.st.errored.Add(1)
	if kind == kindBadInput || kind == kindUnknownBack {
		s.st.badInput.Add(1)
	}
	writeJSON(w, status, errorResponse{Error: apiError{Kind: kind, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
