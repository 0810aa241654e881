package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"multiprefix/internal/backend"
)

// handleMetrics is GET /metrics: the server's counters in the
// Prometheus text exposition format, so the service drops into a
// standard scrape config without a client library dependency.
//
// Two metric families are exposed: the request-pipeline counters the
// JSON /v1/stats endpoint also reports (admission, ladder transitions,
// cache traffic, chaos), and the incremental-plan counters aggregated
// across the live plan cache — the update-vs-rerun decision record
// (fenwick deltas vs full re-runs vs rebuilds, float drift demotions).
// The plan aggregates are sums over *live* cache entries; an evicted
// plan takes its history with it, exactly as it takes its resident
// state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, kindMethod, "GET only")
		return
	}
	snap := s.Stats()
	inc, boundPlans := s.cache.incTotals()

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	bool01 := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}

	counter("mp_requests_total", "Requests received across all endpoints.", snap.Requests)
	counter("mp_requests_ok_total", "Requests answered 200.", snap.OK)
	counter("mp_requests_error_total", "Requests answered with a typed error.", snap.Errors)
	counter("mp_shed_total", "Requests shed by admission control (429).", snap.Shed)
	counter("mp_quota_shed_total", "Requests shed by the per-client fairness quota (429).", snap.QuotaShed)
	counter("mp_rejected_draining_total", "Requests rejected while draining (503).", snap.RejectedDraining)
	counter("mp_bad_input_total", "Requests rejected as bad input.", snap.BadInput)
	counter("mp_deadline_exceeded_total", "Request vectors that ran out of deadline.", snap.DeadlineExceeded)
	counter("mp_canceled_total", "Request vectors whose context was canceled.", snap.Canceled)
	counter("mp_engine_panics_total", "Engine panics converted to typed errors.", snap.EnginePanics)
	counter("mp_serial_fallbacks_total", "Ladder transitions onto the serial retry rung.", snap.SerialFallbacks)
	counter("mp_fused_rounds_total", "Coalesced engine rounds executed.", snap.FusedRounds)
	counter("mp_fused_members_total", "Request vectors served by fused rounds.", snap.FusedMembers)
	counter("mp_split_rounds_total", "Ladder transitions from fused to split-and-rerun.", snap.SplitRounds)
	counter("mp_plan_cache_hits_total", "Plan cache hits.", snap.CacheHits)
	counter("mp_plan_cache_text_hits_total", "Plan cache hits found by the labels array's wire bytes, without parsing it.", snap.LabelTextHits)
	counter("mp_plan_cache_misses_total", "Plan cache misses (builds).", snap.CacheMisses)
	counter("mp_plan_cache_evictions_total", "Plans evicted from the cache.", snap.CacheEvictions)
	counter("mp_chaos_panics_total", "Requests armed with a chaos panic hook.", snap.ChaosPanics)
	counter("mp_chaos_cancels_total", "Requests chaos-canceled at admission.", snap.ChaosCancels)
	counter("mp_update_requests_total", "Requests to /v1/update.", snap.UpdateRequests)
	counter("mp_query_requests_total", "Requests to /v1/query.", snap.QueryRequests)
	counter("mp_updates_applied_total", "Point updates applied to resident plan state.", snap.UpdatesApplied)
	counter("mp_version_conflicts_total", "Requests rejected on a stale version pin.", snap.VersionConflicts)
	counter("mp_not_bound_total", "Stateful requests rejected for missing resident state.", snap.NotBound)
	counter("mp_warmed_plans_total", "Plans pre-built by cache warming.", snap.WarmedPlans)

	counter("mp_plan_binds_total", "Resident vector binds across live plans.", inc.Binds)
	counter("mp_plan_updates_total", "Point updates accepted across live plans.", inc.Updates)
	counter("mp_plan_fenwick_updates_total", "Updates applied as Fenwick deltas on a class tree.", inc.FenwickUpdates)
	counter("mp_plan_fenwick_queries_total", "Queries answered from a class's Fenwick tree.", inc.FenwickQueries)
	counter("mp_plan_snapshot_queries_total", "Queries answered from a clean snapshot.", inc.SnapshotQueries)
	counter("mp_plan_rebuilds_total", "O(n) Fenwick rebuilds across live plans.", inc.Rebuilds)
	counter("mp_plan_reruns_total", "Full engine re-runs refreshing resident state.", inc.Reruns)
	counter("mp_plan_drifts_total", "float64 exact-envelope exits demoting plans to re-run.", inc.Drifts)

	gauge("mp_in_flight", "Requests currently admitted.", snap.InFlight)
	gauge("mp_plan_cache_plans", "Plans currently cached.", int64(snap.CachePlans))
	gauge("mp_plan_cache_bytes", "Bytes the cached plans hold: each plan's own storage (labels, results, index, team buffers, resident state) plus its stored label text.", s.cache.bytes())
	gauge("mp_bound_plans", "Cached plans holding resident state.", int64(boundPlans))
	gauge("mp_draining", "1 while draining.", bool01(snap.Draining))
	gauge("mp_warming", "1 while cache warming holds readiness.", bool01(snap.Warming))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// incTotals aggregates the incremental counters over every live cached
// plan. Takes cache.mu, then each plan's own lock — the same
// cache-before-plan order eviction uses, so a scrape never deadlocks
// against request traffic.
func (c *planCache) incTotals() (total backend.IncStats, boundPlans int) {
	for _, e := range c.liveEntries() {
		c.mu.Lock()
		plan := e.plan
		c.mu.Unlock()
		if plan == nil {
			continue
		}
		st := plan.IncStats()
		if st.Bound {
			boundPlans++
		}
		total.Binds += st.Binds
		total.Updates += st.Updates
		total.FenwickUpdates += st.FenwickUpdates
		total.FenwickQueries += st.FenwickQueries
		total.SnapshotQueries += st.SnapshotQueries
		total.Rebuilds += st.Rebuilds
		total.Reruns += st.Reruns
		total.Drifts += st.Drifts
	}
	return total, boundPlans
}

// bytes reports what the live entries hold: each plan's Plan.Bytes and
// its stored label text. Takes cache.mu, then each plan's own lock, in
// the order incTotals and eviction use.
func (c *planCache) bytes() int64 {
	var n int64
	for _, e := range c.liveEntries() {
		c.mu.Lock()
		plan, text := e.plan, len(e.text)
		c.mu.Unlock()
		if plan != nil {
			n += plan.Bytes() + int64(text)
		}
	}
	return n
}

// liveEntries snapshots the cache's built entries, in digest order:
// a deterministic walk (map iteration is randomized) keeps a scrape's
// lock acquisition pattern stable under contention. Entries still
// building are left out.
func (c *planCache) liveEntries() []*planEntry {
	c.mu.Lock()
	entries := make([]*planEntry, 0, len(c.entries))
	for _, e := range c.entries {
		select {
		case <-e.ready:
			entries = append(entries, e)
		default:
		}
	}
	c.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key.Digest < entries[j].key.Digest })
	return entries
}
