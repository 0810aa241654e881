// Package server is the multiprefix service layer: an HTTP/JSON front
// end over the backend registry in which robustness is the
// architecture. Every request flows through the same pipeline —
// admission control (bounded in-flight, load shedding), a
// single-flight LRU plan cache, a cross-request batch coalescer that
// fuses concurrent requests sharing a plan into one team round, and a
// degradation ladder (fused batch -> split-and-rerun isolation ->
// hook-free serial retry -> typed error) — so an engine panic, a
// cancelled client or an expired deadline costs exactly the request
// that caused it and nothing else.
package server

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// ops maps wire operator names to the int64 operator table. The
// service computes over int64 — the paper's integer multiprefix — and
// exposes every associative operator the core ships for it.
var ops = map[string]core.Op[int64]{
	"sum":  core.AddInt64,
	"prod": core.MulInt64,
	"max":  core.MaxInt64,
	"min":  core.MinInt64,
	"and":  core.AndInt64,
	"or":   core.OrInt64,
	"xor":  core.XorInt64,
}

// serviceBackends is the subset of the registry the service serves:
// auto, the engines its trial picks between (serial, which is also the
// degradation ladder's rung, and chunked), and the sorted family. The
// paper's study engines (spinetree, parallel) cost 13–40× serial's
// engine time for the same answer, and the simulated vector and PRAM
// machines bind their configuration at plan-build time, where
// per-request deadlines and chaos hooks cannot reach them; all four
// stay study-only.
var serviceBackends = map[string]bool{
	"auto":    true,
	"serial":  true,
	"sorted":  true,
	"sharded": true,
	"chunked": true,
}

// servedNames lists serviceBackends in registry order, for the
// unknown_backend message.
var servedNames = func() string {
	var names []string
	for _, name := range backend.Names() {
		if serviceBackends[name] {
			names = append(names, name)
		}
	}
	return strings.Join(names, ", ")
}()

// computeRequest is the JSON body of every compute endpoint. The
// batch endpoints read Batch, the single-vector endpoints Values.
type computeRequest struct {
	// Op is the operator name: sum, prod, max, min, and, or, xor.
	Op string `json:"op"`
	// Backend overrides the server's default backend for this
	// request's plan. Must be one of the service backends.
	Backend string `json:"backend,omitempty"`
	// M is the label-space size; Labels[i] in [0, M).
	M      int   `json:"m"`
	Labels []int `json:"labels"`
	// Values is the single value vector (len == len(Labels)).
	Values []int64 `json:"values,omitempty"`
	// Batch is the batch endpoints' value vectors, each len(Labels).
	Batch [][]int64 `json:"batch,omitempty"`
	// DeadlineMS caps this request's compute time in milliseconds;
	// 0 selects the server default, values above the server maximum
	// are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// PinVersion, when nonzero, pins this request to one plan state
	// version (see /v1/update): the coalescer never fuses requests
	// pinned to different versions, and the round is rejected with
	// version_conflict if the plan has moved on by execution time.
	PinVersion uint64 `json:"pin_version,omitempty"`

	// labelText is the labels array as the wire carried it, when the
	// scanner decoded the body (see decodeCompute). It aliases the
	// body's pooled buffer.
	labelText []byte
	// overN is the length of the longest array the decoder refused to
	// store for holding more than MaxN elements; 0 when none.
	overN int
}

// longest is the length of r's longest array, a batch counting its
// vectors as elements: what the n-limit applies to. It counts the arrays
// the scanner refused to store through overN, and every array of a body
// json.Unmarshal decoded.
func (r *computeRequest) longest() int {
	n := max(len(r.Labels), len(r.Values), len(r.Batch), r.overN)
	for _, v := range r.Batch {
		n = max(n, len(v))
	}
	return n
}

// pointUpdate is one resident-value replacement in an updateRequest.
type pointUpdate struct {
	// I is the element index in [0, n).
	I int `json:"i"`
	// V is the new resident value at I.
	V int64 `json:"v"`
}

// updateRequest is the JSON body of /v1/update: bind and/or mutate the
// resident value vector of the plan identified by (backend, op, labels,
// m) — the same identity the compute endpoints use, so updates land on
// exactly the cached plan that serves them.
type updateRequest struct {
	Op      string `json:"op"`
	Backend string `json:"backend,omitempty"`
	M       int    `json:"m"`
	Labels  []int  `json:"labels"`
	// Values, when present, (re)binds the full resident vector before
	// Updates are applied (len == len(Labels)).
	Values []int64 `json:"values,omitempty"`
	// Updates are point updates applied in order after any bind.
	Updates []pointUpdate `json:"updates,omitempty"`
	// PinVersion, when nonzero, makes the request conditional: it is
	// rejected with version_conflict unless the plan is at exactly this
	// version when the update begins (optimistic concurrency). The
	// plan checks the pin under its own lock at the request's first
	// mutation, so of two requests pinned to one version at most one
	// applies.
	PinVersion uint64 `json:"pin_version,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// updateResponse is the success body of /v1/update.
type updateResponse struct {
	Backend string `json:"backend"`
	Op      string `json:"op"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	// Version is the plan's state version after the request's
	// mutations; pin it in follow-up requests for consistency.
	Version uint64 `json:"version"`
	// Applied counts the point updates applied (excluding the bind).
	Applied int `json:"applied"`
	// Bound reports whether this request installed a fresh vector.
	Bound bool `json:"bound,omitempty"`
	// Mode is the plan's maintenance tier: fenwick-int64,
	// fenwick-float64 or rerun.
	Mode string `json:"mode"`
}

// queryRequest is the JSON body of /v1/query: point reads (and full
// snapshots) over a plan's resident values.
type queryRequest struct {
	Op      string `json:"op"`
	Backend string `json:"backend,omitempty"`
	M       int    `json:"m"`
	Labels  []int  `json:"labels"`
	// Indices asks for the multiprefix value at each element index.
	Indices []int `json:"indices,omitempty"`
	// ReduceLabels asks for the reduction of each label.
	ReduceLabels []int `json:"reduce_labels,omitempty"`
	// Full asks for the complete multiprefix and reduction vectors.
	Full bool `json:"full,omitempty"`
	// PinVersion, when nonzero, demands the answers correspond to
	// exactly this state version; concurrent mutation yields
	// version_conflict instead of a torn multi-point read.
	PinVersion uint64 `json:"pin_version,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// queryResponse is the success body of /v1/query. Prefix and Reduce
// are parallel to the request's Indices and ReduceLabels.
type queryResponse struct {
	Backend string  `json:"backend"`
	Op      string  `json:"op"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Version uint64  `json:"version"`
	Prefix  []int64 `json:"prefix,omitempty"`
	Reduce  []int64 `json:"reduce,omitempty"`
	// Multi and Reductions carry the full vectors when Full is set.
	Multi      []int64 `json:"multi,omitempty"`
	Reductions []int64 `json:"reductions,omitempty"`
	Mode       string  `json:"mode"`
}

// computeResponse is the success body of the single-vector endpoints.
type computeResponse struct {
	Backend string `json:"backend"`
	Op      string `json:"op"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	// Multi is the full multiprefix (multiprefix endpoint).
	Multi []int64 `json:"multi,omitempty"`
	// Reductions is the per-label total vector (multireduce endpoint).
	Reductions []int64 `json:"reductions,omitempty"`
	// Coalesced reports how many requests shared this request's fused
	// engine round (1 = ran alone).
	Coalesced int `json:"coalesced"`
	// Fallback names the backend the degradation ladder retried on
	// when the planned engine failed; empty on the normal path.
	Fallback string `json:"fallback,omitempty"`
}

// batchResponse is the success body of the batch endpoints. The HTTP
// status is 200 whenever the request itself was well-formed; each
// vector carries its own result or typed error.
type batchResponse struct {
	Backend string      `json:"backend"`
	Op      string      `json:"op"`
	N       int         `json:"n"`
	M       int         `json:"m"`
	Results []batchItem `json:"results"`
	// Failed counts results carrying an error.
	Failed int `json:"failed"`
}

// batchItem is one vector's outcome inside a batchResponse: either a
// result or a typed error, never both.
type batchItem struct {
	Multi      []int64   `json:"multi,omitempty"`
	Reductions []int64   `json:"reductions,omitempty"`
	Coalesced  int       `json:"coalesced,omitempty"`
	Fallback   string    `json:"fallback,omitempty"`
	Error      *apiError `json:"error,omitempty"`
}

// apiError is the typed error body every non-200 response (and every
// failed batch item) carries.
type apiError struct {
	// Kind is the machine-readable class: bad_input, unknown_backend,
	// payload_too_large, overloaded, draining, deadline_exceeded,
	// canceled, engine_panic, internal.
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// Error kinds and the statuses they map to. The table in the README
// mirrors this.
const (
	kindBadInput    = "bad_input"
	kindUnknownBack = "unknown_backend"
	kindTooLarge    = "payload_too_large"
	kindOverloaded  = "overloaded"
	// kindQuota (429): the per-client fairness bucket ran dry — this
	// client is over its rate, the server itself has headroom. Back off
	// for Retry-After and resend.
	kindQuota       = "client_quota"
	kindDraining    = "draining"
	kindDeadline    = "deadline_exceeded"
	kindCanceled    = "canceled"
	kindEnginePanic = "engine_panic"
	kindInternal    = "internal"
	kindMethod      = "method_not_allowed"
	// kindVersionConflict (409): the request pinned a plan state
	// version the plan is no longer at. Re-read and retry.
	kindVersionConflict = "version_conflict"
	// kindNotBound (409): the plan has no resident value vector —
	// never bound, or its cache entry was evicted (eviction discards
	// resident state). Re-bind via /v1/update with values.
	kindNotBound = "not_bound"
)

// classify maps an engine or pipeline error to its HTTP status and
// typed kind — the single place the degradation ladder's outcomes
// turn into wire semantics.
func classify(err error) (int, string) {
	var ub *backend.UnknownBackendError
	var vc *backend.VersionConflictError
	var pe *core.EnginePanicError
	switch {
	case errors.As(err, &ub):
		return http.StatusBadRequest, kindUnknownBack
	case errors.As(err, &vc):
		return http.StatusConflict, kindVersionConflict
	case errors.Is(err, backend.ErrNotBound):
		// Checked before the general ErrBadInput class it wraps: the
		// remedy is different (re-bind, not fix the request).
		return http.StatusConflict, kindNotBound
	case errors.Is(err, core.ErrBadInput):
		return http.StatusBadRequest, kindBadInput
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, kindDeadline
	case errors.Is(err, context.Canceled):
		// The client went away or chaos cancelled it; a retry elsewhere
		// may succeed, so advertise retryability.
		return http.StatusServiceUnavailable, kindCanceled
	case errors.As(err, &pe):
		return http.StatusInternalServerError, kindEnginePanic
	default:
		return http.StatusInternalServerError, kindInternal
	}
}
