package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// This file is the stateful half of the service: /v1/update binds and
// mutates a cached plan's resident value vector, /v1/query reads
// multiprefix state back out of it. Both run the same pipeline as the
// compute endpoints — drain gate, admission slots, decode/validate,
// per-request deadline, plan-cache pin, chaos arming — but they do not
// go through the coalescer: the plan's own lock already serializes
// stateful traffic, and a point update has nothing to fuse.
//
// The degradation ladder is shorter here, deliberately. Resident state
// lives in *this* plan; hopping to a cached serial plan (the compute
// ladder's last productive rung) would answer from a plan that holds
// no state at all. So the only productive retry for a chaos-poisoned
// bind or refresh is the same plan, hook-free — and past that the
// error goes back typed.

// admit runs the drain gate and admission control shared by every
// compute-class endpoint: the drain check, the per-client quota, then
// the global in-flight pool. When it returns ok, the request holds an
// in-flight slot and the caller must call release exactly once.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.draining.Load() {
		s.st.rejectedDraining.Add(1)
		s.retryAfter(w)
		s.writeError(w, http.StatusServiceUnavailable, kindDraining, "server is draining")
		return nil, false
	}
	if s.limiter != nil && !s.limiter.allow(clientID(r)) {
		s.st.quotaShed.Add(1)
		s.retryAfter(w)
		s.writeError(w, http.StatusTooManyRequests, kindQuota,
			fmt.Sprintf("client exceeded %g requests/s (burst %d)", s.opts.ClientRPS, s.opts.ClientBurst))
		return nil, false
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.st.shed.Add(1)
		s.retryAfter(w)
		s.writeError(w, http.StatusTooManyRequests, kindOverloaded,
			fmt.Sprintf("in-flight limit %d reached", s.opts.MaxInFlight))
		return nil, false
	}
	s.st.inFlight.Add(1)
	return func() {
		s.st.inFlight.Add(-1)
		<-s.slots
	}, true
}

// resolvePlanIdent validates the plan identity every endpoint shares —
// operator, backend, problem shape (n labels, label space m) — writing
// the typed error itself on failure. It returns the resolved operator
// and backend name.
func (s *Server) resolvePlanIdent(w http.ResponseWriter, opName, backendName string, n, m int) (core.Op[int64], string, bool) {
	op, ok := ops[opName]
	if !ok {
		s.writeError(w, http.StatusBadRequest, kindBadInput, fmt.Sprintf("unknown op %q", opName))
		return core.Op[int64]{}, "", false
	}
	if backendName == "" {
		backendName = s.opts.Backend
	}
	if !served(backendName) {
		s.writeError(w, http.StatusBadRequest, kindUnknownBack,
			fmt.Sprintf("backend %q is not served (want one of %s)", backendName, servedNames))
		return core.Op[int64]{}, "", false
	}
	if n > s.opts.MaxN {
		s.writeError(w, http.StatusBadRequest, kindBadInput,
			fmt.Sprintf("n=%d exceeds limit %d", n, s.opts.MaxN))
		return core.Op[int64]{}, "", false
	}
	if m > s.opts.MaxM {
		s.writeError(w, http.StatusBadRequest, kindBadInput,
			fmt.Sprintf("m=%d exceeds limit %d", m, s.opts.MaxM))
		return core.Op[int64]{}, "", false
	}
	return op, backendName, true
}

// requestCtx derives the per-request deadline context from the wire
// deadline_ms, clamped to the server maximum. The clamp compares
// milliseconds: converted first, a deadline_ms past 2^63 ns would wrap
// negative and expire at once.
func (s *Server) requestCtx(parent context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultDeadline
	switch {
	case deadlineMS > s.opts.MaxDeadline.Milliseconds():
		d = s.opts.MaxDeadline
	case deadlineMS > 0:
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.opts.MaxDeadline {
		d = s.opts.MaxDeadline
	}
	return context.WithTimeout(parent, d)
}

// pinConflict checks an optimistic-concurrency pin against the plan's
// current version, writing the typed 409 itself on mismatch.
func (s *Server) pinConflict(w http.ResponseWriter, plan *backend.Plan[int64], pin uint64) bool {
	if pin == 0 {
		return false
	}
	if cur := plan.Version(); cur != pin {
		s.st.versionConflicts.Add(1)
		s.writeError(w, http.StatusConflict, kindVersionConflict,
			fmt.Sprintf("plan is at version %d, request pinned %d", cur, pin))
		return true
	}
	return false
}

// handleUpdate is POST /v1/update: optionally (re)bind the resident
// value vector of the identified plan, then apply point updates in
// order. Every mutation bumps the plan version returned in the
// response; the cache key never moves (see backend.Key).
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.st.requests.Add(1)
	s.st.updateRequests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, kindMethod, "POST only")
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	var req updateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	op, backendName, ok := s.resolvePlanIdent(w, req.Op, req.Backend, len(req.Labels), req.M)
	if !ok {
		return
	}
	n := len(req.Labels)
	if req.Values != nil && len(req.Values) != n {
		s.writeError(w, http.StatusBadRequest, kindBadInput,
			fmt.Sprintf("values has %d entries for %d labels", len(req.Values), n))
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), req.DeadlineMS)
	defer cancel()

	entry, err := s.cache.acquire(ctx, backendName, op, req.Labels, req.M)
	if err != nil {
		status, kind := classify(err)
		s.writeError(w, status, kind, err.Error())
		return
	}
	defer s.cache.release(entry)
	plan := entry.plan
	cctx, hook := s.armChaos(ctx, n)

	// The pin rides on the request's first mutation, where the plan
	// checks it under its own lock; a request that mutates nothing
	// only compares it.
	pin := req.PinVersion
	bound := false
	if req.Values != nil {
		err := plan.BindCall(backend.Call{Ctx: cctx, Hook: hook, Pin: pin}, req.Values)
		if err != nil && hook != nil && !backend.Terminal(err) {
			// Hook-free retry on the same plan: the resident state the
			// request is installing can live nowhere else. The failed
			// bind passed its pin and moved the plan one version on, so
			// a pinned retry pins that version: it still applies only
			// if nothing else mutated the plan in between.
			s.notePanic(err)
			if pin != 0 {
				pin++
			}
			err = plan.BindCall(backend.Call{Ctx: cctx, Pin: pin}, req.Values)
		}
		if err != nil {
			s.failStateful(w, err)
			return
		}
		bound = true
		pin = 0
	} else if len(req.Updates) == 0 && s.pinConflict(w, plan, pin) {
		return
	} else if !plan.Bound() {
		s.st.notBound.Add(1)
		s.writeError(w, http.StatusConflict, kindNotBound,
			"plan has no resident values; include values to bind")
		return
	}

	applied := 0
	for k, u := range req.Updates {
		if err := plan.UpdateCall(backend.Call{Ctx: cctx, Pin: pin}, u.I, u.V); err != nil {
			s.st.updatesApplied.Add(uint64(applied))
			s.failStateful(w, fmt.Errorf("update %d: %w", k, err))
			return
		}
		pin = 0
		applied++
	}
	s.st.updatesApplied.Add(uint64(applied))
	s.st.ok.Add(1)
	writeJSON(w, http.StatusOK, updateResponse{
		Backend: backendName,
		Op:      req.Op,
		N:       n,
		M:       req.M,
		Version: plan.Version(),
		Applied: applied,
		Bound:   bound,
		Mode:    plan.IncStats().Mode,
	})
}

// handleQuery is POST /v1/query: point multiprefix reads, per-label
// reductions and full snapshots over the identified plan's resident
// values. With a version pin, the whole multi-point read is guaranteed
// to correspond to exactly that state version or fail typed.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.st.requests.Add(1)
	s.st.queryRequests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, kindMethod, "POST only")
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	var req queryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	op, backendName, ok := s.resolvePlanIdent(w, req.Op, req.Backend, len(req.Labels), req.M)
	if !ok {
		return
	}
	n := len(req.Labels)
	ctx, cancel := s.requestCtx(r.Context(), req.DeadlineMS)
	defer cancel()

	entry, err := s.cache.acquire(ctx, backendName, op, req.Labels, req.M)
	if err != nil {
		status, kind := classify(err)
		s.writeError(w, status, kind, err.Error())
		return
	}
	defer s.cache.release(entry)
	plan := entry.plan
	cctx, hook := s.armChaos(ctx, n)

	if !plan.Bound() {
		s.st.notBound.Add(1)
		s.writeError(w, http.StatusConflict, kindNotBound,
			"plan has no resident values; bind via /v1/update first")
		return
	}
	if s.pinConflict(w, plan, req.PinVersion) {
		return
	}

	call := backend.Call{Ctx: cctx, Hook: hook}
	bare := backend.Call{Ctx: cctx}
	resp := queryResponse{Backend: backendName, Op: req.Op, N: n, M: req.M}
	if len(req.Indices) > 0 {
		resp.Prefix = make([]int64, len(req.Indices))
		for j, i := range req.Indices {
			v, err := plan.QueryPrefixCall(call, i)
			if err != nil && hook != nil && !backend.Terminal(err) {
				s.notePanic(err)
				v, err = plan.QueryPrefixCall(bare, i)
			}
			if err != nil {
				s.failStateful(w, fmt.Errorf("index %d: %w", i, err))
				return
			}
			resp.Prefix[j] = v
		}
	}
	if len(req.ReduceLabels) > 0 {
		resp.Reduce = make([]int64, len(req.ReduceLabels))
		for j, c := range req.ReduceLabels {
			v, err := plan.ReduceLabelCall(call, c)
			if err != nil && hook != nil && !backend.Terminal(err) {
				s.notePanic(err)
				v, err = plan.ReduceLabelCall(bare, c)
			}
			if err != nil {
				s.failStateful(w, fmt.Errorf("label %d: %w", c, err))
				return
			}
			resp.Reduce[j] = v
		}
	}
	if req.Full {
		resp.Multi = make([]int64, n)
		resp.Reductions = make([]int64, req.M)
		_, err := plan.SnapshotCall(call, resp.Multi, resp.Reductions)
		if err != nil && hook != nil && !backend.Terminal(err) {
			s.notePanic(err)
			_, err = plan.SnapshotCall(bare, resp.Multi, resp.Reductions)
		}
		if err != nil {
			s.failStateful(w, err)
			return
		}
	}
	resp.Version = plan.Version()
	resp.Mode = plan.IncStats().Mode
	// A pinned multi-point read must be torn-free: if a concurrent
	// update moved the version while answers were collected, the set
	// does not correspond to any single state — reject it typed.
	if req.PinVersion != 0 && resp.Version != req.PinVersion {
		s.st.versionConflicts.Add(1)
		s.writeError(w, http.StatusConflict, kindVersionConflict,
			fmt.Sprintf("plan moved to version %d during a read pinned to %d", resp.Version, req.PinVersion))
		return
	}
	s.st.ok.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// notePanic counts an engine panic: one a hook-free retry absorbed, so
// chaos-induced ladder transitions stay visible in /metrics even when
// the retry heals them, or one that failed a request.
func (s *Server) notePanic(err error) {
	var pe *core.EnginePanicError
	if errors.As(err, &pe) {
		s.st.enginePanics.Add(1)
	}
}

// failStateful writes one stateful-pipeline error with its typed kind
// and the stats bookkeeping the compute path does per member.
func (s *Server) failStateful(w http.ResponseWriter, err error) {
	s.notePanic(err)
	s.countMemberErr(err)
	status, kind := classify(err)
	if kind == kindVersionConflict {
		s.st.versionConflicts.Add(1)
	}
	if status == http.StatusServiceUnavailable {
		s.retryAfter(w)
	}
	s.writeError(w, status, kind, err.Error())
}
