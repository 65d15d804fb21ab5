package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernstats"
	"repro/internal/layoutio"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qbench"
	"repro/internal/topology"
)

// NewHandler wires the engine behind the service's HTTP API:
//
//	GET  /v1/layout?topology=Falcon&strategy=qGDP-LG&seed=1   layout + report (format=svg for a rendering)
//	POST /v1/layout/delta                                     incremental layout: base request + edit list
//	GET  /v1/fidelity?topology=Falcon&strategy=qGDP-LG&bench=bv-4&mappings=50
//	GET  /v1/strategies                                       strategies, topologies, benchmarks
//	GET  /v1/sweep?topologies=Grid,Falcon&benchmarks=bv-4     NDJSON stream, one line per topology × strategy
//	POST /v1/jobs                                             submit a batch of layout requests, returns a job ID
//	GET  /v1/jobs                                             summaries of retained jobs
//	GET  /v1/jobs/{id}                                        job status + per-item partial results
//	GET  /healthz                                             liveness + readiness detail (503 when the disk tier errors)
//	GET  /statsz                                              engine counters
//	GET  /metricsz                                            Prometheus text exposition of the obs registry
//	GET  /tracez                                              recent request traces (slowest-first; ?id= for one tree)
//	GET  /tenantz                                             per-tenant accounting (requests, hits, compute, sheds)
//	GET  /slolz                                               SLO compliance + burn rates over the 5m/1h windows
//	GET  /profilez                                            continuous-profiling ring index (?name= downloads one)
//	GET  /fleetz                                              merged observability view of the whole cluster
//	GET  /obs/summary                                         this replica's compact snapshot (the /fleetz unit)
//	GET  /clusterz                                            cluster mode: membership + health view
//	POST /clusterz                                            cluster mode: gossip digest exchange (heartbeat target)
//	GET  /clusterz/route?topology=...                         cluster mode: ring verdict for one request
//	POST /v1/replicate                                        cluster mode: pushed layout envelope from a co-owner
//	POST /v1/replicate/diff                                   cluster mode: anti-entropy key exchange
//	GET  /v1/envelope?key=...                                 cluster mode: one layout envelope from the local store
//
// In cluster mode (Options.Cluster set), /v1/layout, /v1/fidelity, and
// job items are ring-routed: a replica that does not own the request
// key proxies it to the owner (one hop, X-QGDP-Forwarded guarded)
// unless the result is already in the local/shared store, and computes
// locally when the owner is unreachable.
//
// Every /v1/layout and /v1/fidelity request runs under a trace whose
// spans cover the queue wait, store tiers, pipeline stages, and (in
// cluster mode) the forward hop; ?debug=trace inlines the span tree in
// the response, and the trace lands in the /tracez ring either way.
func NewHandler(e *Engine) http.Handler {
	layout := func(w http.ResponseWriter, r *http.Request) { handleLayout(e, w, r) }
	fidelity := func(w http.ResponseWriter, r *http.Request) { handleFidelity(e, w, r) }
	delta := func(w http.ResponseWriter, r *http.Request) { handleLayoutDelta(e, w, r) }
	mux := http.NewServeMux()
	if e.cluster != nil {
		layout = routedLayoutHandler(e, layout)
		fidelity = routedFidelityHandler(e, fidelity)
		delta = routedDeltaHandler(e, delta)
		mux.Handle("GET /clusterz", e.cluster.Handler())
		mux.Handle("POST /clusterz", e.cluster.Handler())
		mux.HandleFunc("GET /clusterz/route", func(w http.ResponseWriter, r *http.Request) { handleClusterRoute(e, w, r) })
		mux.HandleFunc("POST /v1/replicate", func(w http.ResponseWriter, r *http.Request) { handleReplicate(e, w, r) })
		mux.HandleFunc("POST /v1/replicate/diff", func(w http.ResponseWriter, r *http.Request) { handleReplicateDiff(e, w, r) })
		mux.HandleFunc("GET /v1/envelope", func(w http.ResponseWriter, r *http.Request) { handleEnvelope(e, w, r) })
	}
	// The trace middleware sits outside the routing wrapper so a
	// forwarded request's hop span (and the remote tree grafted under
	// it) lands in this replica's trace. The QoS front-end sits
	// outermost: shed and expired-on-arrival requests never allocate a
	// trace or touch the engine, and the deadline context it installs
	// bounds everything below, forward hop included.
	layout = qosHandler(e, tracedHandler(e, "/v1/layout", layout))
	fidelity = qosHandler(e, tracedHandler(e, "/v1/fidelity", fidelity))
	delta = qosHandler(e, tracedHandler(e, "/v1/layout/delta", delta))
	mux.HandleFunc("GET /v1/layout", layout)
	mux.HandleFunc("GET /v1/fidelity", fidelity)
	mux.HandleFunc("POST /v1/layout/delta", delta)
	mux.HandleFunc("GET /v1/strategies", handleStrategies)
	mux.HandleFunc("GET /v1/sweep", func(w http.ResponseWriter, r *http.Request) { handleSweep(e, w, r) })
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { handleJobSubmit(e, w, r) })
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": e.Jobs().List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, ok := e.Jobs().Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		hv, ok := e.Health()
		status := http.StatusOK
		if !ok {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, hv)
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, e.Stats())
	})
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, _ *http.Request) {
		handleMetricsz(e, w)
	})
	mux.HandleFunc("GET /tracez", func(w http.ResponseWriter, r *http.Request) {
		handleTracez(e, w, r)
	})
	mux.HandleFunc("GET /tenantz", func(w http.ResponseWriter, _ *http.Request) {
		handleTenantz(e, w)
	})
	mux.HandleFunc("GET /slolz", func(w http.ResponseWriter, _ *http.Request) {
		handleSlolz(e, w)
	})
	mux.HandleFunc("GET /profilez", func(w http.ResponseWriter, r *http.Request) {
		handleProfilez(e, w, r)
	})
	mux.HandleFunc("GET /obs/summary", func(w http.ResponseWriter, _ *http.Request) {
		handleObsSummary(e, w)
	})
	mux.HandleFunc("GET /fleetz", func(w http.ResponseWriter, r *http.Request) {
		handleFleetz(e, w, r)
	})
	return mux
}

// qosHandler is the QoS front-end around the synchronous request
// handlers: it resolves the tenant (TenantHeader, shared "default"
// bucket otherwise), charges the tenant's token bucket — except on
// forwarded hops, which the entry replica already charged — and
// installs the request's deadline (DeadlineHeader, or the engine's
// default) as a context timeout. Requests whose deadline has already
// expired are rejected with 504 before any placement work happens.
func qosHandler(e *Engine, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(TenantHeader)
		if tenant == "" {
			tenant = DefaultTenant
		}
		ts := e.acct.Tenant(tenant)
		if r.Header.Get(cluster.ForwardHeader) == "" {
			// Entry replica only: a forwarded hop was already counted
			// (and quota-charged) where it entered the fleet, so skipping
			// it here keeps per-tenant rows addable across replicas.
			ts.Request()
			if ok, wait := e.adm.allowQuota(tenant); !ok {
				kernstats.ShedQuota.Add(1)
				ts.Shed()
				writeShed(w, &ShedError{
					Status:     http.StatusTooManyRequests,
					RetryAfter: retryAfterFor(wait),
					Reason:     fmt.Sprintf("tenant %q over quota", tenant),
				})
				return
			}
		}
		ctx := withTenant(r.Context(), tenant)
		budget, has, err := parseDeadline(r.Header.Get(DeadlineHeader), time.Now())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if !has && e.defaultDeadline > 0 {
			budget, has = e.defaultDeadline, true
		}
		if has {
			if budget <= 0 {
				kernstats.DeadlineRejected.Add(1)
				e.adm.recordShed()
				ts.DeadlineBlow()
				writeError(w, http.StatusGatewayTimeout,
					fmt.Errorf("deadline expired %s before arrival", (-budget).Round(time.Millisecond)))
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		h(w, r.WithContext(ctx))
	}
}

// parseDeadline interprets a DeadlineHeader value: a Go duration
// ("750ms") is a budget from now; a bare integer is an absolute unix
// timestamp in milliseconds. The returned budget is the remaining
// time — zero or negative means already expired.
func parseDeadline(v string, now time.Time) (time.Duration, bool, error) {
	if v == "" {
		return 0, false, nil
	}
	if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.UnixMilli(ms).Sub(now), true, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s %q: %w", DeadlineHeader, v, err)
	}
	return d, true, nil
}

// tracedHandler runs h under a request trace: a fresh one normally, an
// adopted one when the request carries cluster.TraceHeader (a forward
// hop or job fan-out from another replica — both halves then share one
// trace ID). The finished trace lands in the /tracez ring and, when it
// crossed the slow threshold, in the slow-request log.
func tracedHandler(e *Engine, name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var (
			tr   *obs.Trace
			root *obs.Span
		)
		if ref := r.Header.Get(cluster.TraceHeader); ref != "" {
			id, parent, _ := strings.Cut(ref, ";")
			tr, root = obs.Adopt(id, name, parent)
		} else {
			tr, root = obs.New(name)
		}
		hw := &heldWriter{ResponseWriter: w}
		h(hw, r.WithContext(obs.WithSpan(r.Context(), root)))
		e.recordTrace(name, tenantFrom(r.Context()), tr.Finish())
		hw.release()
	}
}

// heldWriter passes a response through except for the most recent body
// write, which it holds until release. tracedHandler records the trace
// before releasing it, so a client that has read the whole body finds
// the request in /tracez and the slow log. The traced handlers write a
// JSON body in one call, so the held write is the whole body; a
// streamed forward body is held one chunk at a time. The held copy is
// garbage once released: pooling it would keep the largest body alive.
type heldWriter struct {
	http.ResponseWriter
	held []byte
}

func (h *heldWriter) Write(p []byte) (int, error) {
	if err := h.release(); err != nil {
		return 0, err
	}
	h.held = bytes.Clone(p)
	return len(p), nil
}

// release writes the held bytes through.
func (h *heldWriter) release() error {
	if len(h.held) == 0 {
		return nil
	}
	_, err := h.ResponseWriter.Write(h.held)
	h.held = nil
	return err
}

// traceRef formats the cluster.TraceHeader value for an outgoing hop:
// the trace ID plus the span the remote half hangs under.
func traceRef(s *obs.Span, parent string) string {
	tr := s.Trace()
	if tr == nil {
		return ""
	}
	return tr.ID() + ";" + parent
}

// handleMetricsz renders the obs registry (kernstats counters, stage
// and kernel histograms) plus the engine-scoped series derived from
// Stats() in Prometheus text exposition format.
func handleMetricsz(e *Engine, w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	obs.WritePrometheus(&buf)
	writeEngineMetrics(&buf, e)
	w.Write(buf.Bytes())
}

// writeEngineMetrics emits the per-engine series (the obs registry is
// process-wide; these come from this engine's Stats snapshot).
func writeEngineMetrics(w io.Writer, e *Engine) {
	s := e.Stats()
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# HELP %s Total %s events.\n# TYPE %s counter\n%s %d\n", name, name, name, name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# HELP %s Current %s value.\n# TYPE %s gauge\n%s %d\n", name, name, name, name, v)
	}
	counter("qgdp_engine_requests_total", s.Requests)
	counter("qgdp_engine_layout_hits_total", s.LayoutHits)
	counter("qgdp_engine_layout_misses_total", s.LayoutMisses)
	counter("qgdp_engine_gp_hits_total", s.GPHits)
	counter("qgdp_engine_gp_misses_total", s.GPMisses)
	counter("qgdp_engine_fidelity_hits_total", s.FidelityHits)
	counter("qgdp_engine_fidelity_misses_total", s.FidelityMisses)
	counter("qgdp_engine_computed_total", s.Computed)
	counter("qgdp_engine_shared_flights_total", s.SharedFlights)
	gauge("qgdp_engine_in_flight", s.InFlight)
	gauge("qgdp_parallel_capacity", int64(s.Parallel.Capacity))
	gauge("qgdp_parallel_tokens_in_use", int64(s.Parallel.TokensInUse))
	counter("qgdp_parallel_tokens_granted_total", int64(s.Parallel.TokensGranted))
	counter("qgdp_parallel_tokens_denied_total", int64(s.Parallel.TokensDenied))
	counter("qgdp_parallel_pool_tasks_total", int64(s.Parallel.PoolTasks))
	gauge("qgdp_store_mem_entries", s.Store.MemEntries)
	gauge("qgdp_store_disk_files", s.Store.DiskFiles)
	gauge("qgdp_store_disk_bytes", s.Store.DiskBytes)
	gauge("qgdp_store_disk_healthy", boolGauge(s.Store.DiskHealthy))
	gauge("qgdp_jobs_retained", int64(s.Jobs.Retained))
	gauge("qgdp_traces_retained", int64(e.rec.Len()))
	if s.Admission != nil {
		gauge("qgdp_admission_queued", int64(s.Admission.Queued))
		gauge("qgdp_admission_max_queue", int64(s.Admission.MaxQueue))
		fmt.Fprintf(w, "# HELP qgdp_admission_shed_rate_1m Shed fraction over the last minute.\n# TYPE qgdp_admission_shed_rate_1m gauge\nqgdp_admission_shed_rate_1m %g\n", s.Admission.ShedRate1m)
	}
	if s.Cluster != nil {
		gauge("qgdp_cluster_replication", int64(s.Cluster.Replication))
		peers := make([]string, 0, len(s.Cluster.PeerUp))
		for p := range s.Cluster.PeerUp {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		fmt.Fprintf(w, "# HELP qgdp_cluster_peer_up Whether routing considers the peer usable.\n# TYPE qgdp_cluster_peer_up gauge\n")
		for _, p := range peers {
			fmt.Fprintf(w, "qgdp_cluster_peer_up{peer=\"%s\"} %d\n",
				obs.EscapeLabel(p), boolGauge(s.Cluster.PeerUp[p]))
		}
		breaker := make(map[string]cluster.BreakerState, len(s.Cluster.Peers))
		laneUtil := make(map[string]float64, len(s.Cluster.Peers))
		for _, ps := range s.Cluster.Peers {
			breaker[ps.Addr] = ps.Breaker
			laneUtil[ps.Addr] = ps.LaneUtil
		}
		fmt.Fprintf(w, "# HELP qgdp_cluster_breaker_open Whether the peer's forwarding breaker is not closed.\n# TYPE qgdp_cluster_breaker_open gauge\n")
		for _, p := range peers {
			fmt.Fprintf(w, "qgdp_cluster_breaker_open{peer=\"%s\"} %d\n",
				obs.EscapeLabel(p), boolGauge(breaker[p] != cluster.BreakerClosed))
		}
		// The first consumer of the lane-utilization field every gossip
		// digest has carried since PR 8: peers' self-reported parallel
		// load, scraped next to peer_up so a hot replica is visible
		// before it starts shedding.
		fmt.Fprintf(w, "# HELP qgdp_cluster_peer_lane_util Peer's gossiped parallel-lane utilization in [0,1].\n# TYPE qgdp_cluster_peer_lane_util gauge\n")
		for _, p := range peers {
			fmt.Fprintf(w, "qgdp_cluster_peer_lane_util{peer=\"%s\"} %g\n",
				obs.EscapeLabel(p), laneUtil[p])
		}
		gauge("qgdp_cluster_open_breakers", int64(s.Cluster.OpenBreakers))
		gauge("qgdp_cluster_members", int64(s.Cluster.Members))
		gauge("qgdp_cluster_members_alive", int64(s.Cluster.MembersAlive))
	}
	if s.Replication != nil {
		gauge("qgdp_replication_pending", int64(s.Replication.Pending))
	}
	writeTenantMetrics(w, e.acct.Snapshot())
	writeSLOMetrics(w, s.SLOs)
}

// writeTenantMetrics renders the qgdp_tenant_* labeled families from
// the accounting table (rows pre-sorted by tenant, so series order is
// deterministic).
func writeTenantMetrics(w io.Writer, rows []obs.TenantSnapshot) {
	if len(rows) == 0 {
		return
	}
	intFamily := func(name, help string, get func(obs.TenantSnapshot) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range rows {
			fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", name, obs.EscapeLabel(t.Tenant), get(t))
		}
	}
	floatFamily := func(name, help string, get func(obs.TenantSnapshot) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range rows {
			fmt.Fprintf(w, "%s{tenant=\"%s\"} %g\n", name, obs.EscapeLabel(t.Tenant), get(t))
		}
	}
	intFamily("qgdp_tenant_requests_total", "Requests admitted per tenant.",
		func(t obs.TenantSnapshot) int64 { return t.Requests })
	intFamily("qgdp_tenant_cache_hits_total", "Requests served from the layout store per tenant.",
		func(t obs.TenantSnapshot) int64 { return t.CacheHits })
	intFamily("qgdp_tenant_sheds_total", "Requests shed (quota or queue) per tenant.",
		func(t obs.TenantSnapshot) int64 { return t.Sheds })
	intFamily("qgdp_tenant_deadline_blown_total", "Requests that missed their deadline per tenant.",
		func(t obs.TenantSnapshot) int64 { return t.DeadlineBlown })
	floatFamily("qgdp_tenant_compute_seconds_total", "Compute seconds spent per tenant.",
		func(t obs.TenantSnapshot) float64 { return t.ComputeSeconds })
	floatFamily("qgdp_tenant_queue_wait_seconds_total", "Worker-queue wait seconds per tenant.",
		func(t obs.TenantSnapshot) float64 { return t.QueueWaitSeconds })
}

// writeSLOMetrics renders qgdp_slo_* (rows pre-sorted by slo, window).
func writeSLOMetrics(w io.Writer, rows []obs.SLOState) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP qgdp_slo_burn_rate Error-budget burn rate per objective and window.\n# TYPE qgdp_slo_burn_rate gauge\n")
	for _, s := range rows {
		fmt.Fprintf(w, "qgdp_slo_burn_rate{slo=\"%s\",window=\"%s\"} %g\n",
			obs.EscapeLabel(s.SLO), obs.EscapeLabel(s.Window), s.BurnRate)
	}
	fmt.Fprintf(w, "# HELP qgdp_slo_good_total Good events per objective and window.\n# TYPE qgdp_slo_good_total gauge\n")
	for _, s := range rows {
		fmt.Fprintf(w, "qgdp_slo_good_total{slo=\"%s\",window=\"%s\"} %d\n",
			obs.EscapeLabel(s.SLO), obs.EscapeLabel(s.Window), s.Good)
	}
	fmt.Fprintf(w, "# HELP qgdp_slo_events_total Scored events per objective and window.\n# TYPE qgdp_slo_events_total gauge\n")
	for _, s := range rows {
		fmt.Fprintf(w, "qgdp_slo_events_total{slo=\"%s\",window=\"%s\"} %d\n",
			obs.EscapeLabel(s.SLO), obs.EscapeLabel(s.Window), s.Total)
	}
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// traceSummary is one row of the /tracez listing.
type traceSummary struct {
	ID    string            `json:"id"`
	Name  string            `json:"name"`
	Start string            `json:"start"`
	DurMs float64           `json:"dur_ms"`
	Spans int               `json:"spans"`
	Top   []obs.SpanSummary `json:"top"`
}

// handleTracez serves the recent-trace ring: ?id= returns one full span
// tree; otherwise a filtered listing (?sort=recent|slow, ?stage=,
// ?min_ms=, ?limit=), slowest-first by default.
func handleTracez(e *Engine, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		td := e.rec.Get(id)
		if td == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", id))
			return
		}
		writeJSON(w, http.StatusOK, td)
		return
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	var minMs float64
	if v := q.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", v))
			return
		}
		minMs = f
	}
	bySlowest := q.Get("sort") != "recent"
	list := e.rec.List(bySlowest, q.Get("stage"), minMs, limit)
	out := make([]traceSummary, 0, len(list))
	for _, td := range list {
		out = append(out, traceSummary{
			ID:    td.ID,
			Name:  td.Name,
			Start: td.Start.UTC().Format("2006-01-02T15:04:05.000Z"),
			DurMs: td.DurMs,
			Spans: td.Spans,
			Top:   td.Top(3),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"recorded": e.rec.Seen(),
		"retained": e.rec.Len(),
		"count":    len(out),
		"traces":   out,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// applyConfigOverrides applies the optional per-request knobs shared by
// the query API and the jobs API onto cfg. Both paths MUST build
// configs identically — the config is hashed into the cache key, so any
// divergence would make job-computed layouts invisible to sync traffic.
func applyConfigOverrides(cfg *core.Config, seed *int64, mappings *int, padding *float64) error {
	if seed != nil {
		cfg.GP.Seed = *seed
	}
	if mappings != nil {
		if *mappings <= 0 {
			return fmt.Errorf("bad mappings %d", *mappings)
		}
		cfg.Mappings = *mappings
	}
	if padding != nil {
		if *padding < 0 {
			return fmt.Errorf("bad padding %g", *padding)
		}
		cfg.GP.Padding = *padding
	}
	return nil
}

// resolveTarget validates the topology name and resolves the strategy
// (empty defaults to qGDP-LG) — the request-identity checks shared by
// the query API and the jobs API.
func resolveTarget(topo, strategy string) (core.Strategy, error) {
	if topo == "" {
		return "", fmt.Errorf("missing topology parameter")
	}
	if _, err := topology.ByName(topo); err != nil {
		return "", err
	}
	s := core.Strategy(strategy)
	if s == "" {
		s = core.QGDPLG
	}
	if !validStrategy(s) {
		return "", fmt.Errorf("unknown strategy %q", strategy)
	}
	return s, nil
}

// configFromQuery builds a request config: evaluation defaults with the
// cache-relevant knobs (seed, mappings, padding) overridable per call.
func configFromQuery(r *http.Request) (core.Config, error) {
	cfg := core.DefaultConfig()
	q := r.URL.Query()
	var (
		seed     *int64
		mappings *int
		padding  *float64
	)
	if v := q.Get("seed"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed %q", v)
		}
		seed = &s
	}
	if v := q.Get("mappings"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil {
			return cfg, fmt.Errorf("bad mappings %q", v)
		}
		mappings = &m
	}
	if v := q.Get("padding"); v != "" {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad padding %q", v)
		}
		padding = &p
	}
	return cfg, applyConfigOverrides(&cfg, seed, mappings, padding)
}

func layoutRequestFromQuery(r *http.Request) (LayoutRequest, error) {
	topo := r.URL.Query().Get("topology")
	strategy, err := resolveTarget(topo, r.URL.Query().Get("strategy"))
	if err != nil {
		return LayoutRequest{}, err
	}
	cfg, err := configFromQuery(r)
	if err != nil {
		return LayoutRequest{}, err
	}
	return LayoutRequest{Topology: topo, Strategy: strategy, Config: cfg}, nil
}

func validStrategy(s core.Strategy) bool {
	for _, v := range append(core.Strategies(), core.QGDPDP) {
		if s == v {
			return true
		}
	}
	return false
}

// layoutResponse is the /v1/layout body.
type layoutResponse struct {
	Topology    string            `json:"topology"`
	Strategy    core.Strategy     `json:"strategy"`
	Seed        int64             `json:"seed"`
	CacheHit    bool              `json:"cache_hit"`
	Shared      bool              `json:"shared"`
	Report      metrics.Report    `json:"report"`
	QubitMs     float64           `json:"tq_ms"`
	ResonatorMs float64           `json:"te_ms"`
	DPMs        float64           `json:"dp_ms"`
	Layout      layoutio.Document `json:"layout"`
	// TraceID/Trace are present only with ?debug=trace: the request's
	// span tree as of response time (the root span is still open). On a
	// forwarded request the tree is the remote replica's half; the
	// caller grafts it under its hop span before relaying.
	TraceID string        `json:"trace_id,omitempty"`
	Trace   *obs.SpanNode `json:"trace,omitempty"`
}

func handleLayout(e *Engine, w http.ResponseWriter, r *http.Request) {
	req, err := layoutRequestFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := e.Layout(r.Context(), req)
	if err != nil {
		writeRequestError(e, r.Context(), w, err)
		return
	}
	if r.URL.Query().Get("format") == "svg" {
		w.Header().Set("Content-Type", "image/svg+xml")
		layoutio.WriteSVG(w, res.Layout.Netlist, layoutio.SVGOptions{Routes: true})
		return
	}
	lay := res.Layout
	resp := layoutResponse{
		Topology:    req.Topology,
		Strategy:    req.Strategy,
		Seed:        req.Config.GP.Seed,
		CacheHit:    res.CacheHit,
		Shared:      res.Shared,
		Report:      lay.Report,
		QubitMs:     float64(lay.QubitTime.Nanoseconds()) / 1e6,
		ResonatorMs: float64(lay.ResonatorTime.Nanoseconds()) / 1e6,
		DPMs:        float64(lay.DPTime.Nanoseconds()) / 1e6,
		Layout:      layoutio.NewDocument(lay.Netlist),
	}
	if r.URL.Query().Get("debug") == "trace" {
		if sp := obs.SpanFrom(r.Context()); sp != nil {
			snap := sp.Trace().Snapshot()
			resp.TraceID = snap.ID
			resp.Trace = snap.Root
		}
	}
	writeEncoded(r.Context(), w, resp)
}

// writeEncoded writes a 200 JSON response under a service.encode span,
// so a request's trace shows what encoding its body cost.
func writeEncoded(ctx context.Context, w http.ResponseWriter, v any) {
	sp := obs.SpanFrom(ctx).Child("service.encode")
	writeJSON(w, http.StatusOK, v)
	sp.End()
}

func handleFidelity(e *Engine, w http.ResponseWriter, r *http.Request) {
	lreq, err := layoutRequestFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bench := r.URL.Query().Get("bench")
	if bench == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing bench parameter"))
		return
	}
	if _, err := qbench.ByName(bench); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := e.Fidelity(r.Context(), FidelityRequest{LayoutRequest: lreq, Benchmark: bench})
	if err != nil {
		writeRequestError(e, r.Context(), w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"topology":  lreq.Topology,
		"strategy":  lreq.Strategy,
		"bench":     bench,
		"mappings":  lreq.Config.Mappings,
		"seed":      lreq.Config.GP.Seed,
		"fidelity":  res.Fidelity,
		"cache_hit": res.CacheHit,
		"shared":    res.Shared,
	})
}

func handleStrategies(w http.ResponseWriter, _ *http.Request) {
	var topos []string
	for _, d := range topology.All() {
		topos = append(topos, d.Name)
	}
	var benches []string
	for _, b := range qbench.Suite() {
		benches = append(benches, b.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"strategies": append(core.Strategies(), core.QGDPDP),
		"topologies": topos,
		"benchmarks": benches,
	})
}

// handleSweep streams one NDJSON line per topology × strategy as each
// finishes (completion order, not request order).
func handleSweep(e *Engine, w http.ResponseWriter, r *http.Request) {
	cfg, err := configFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()

	topos := splitList(q.Get("topologies"))
	if len(topos) == 0 {
		for _, d := range topology.All() {
			topos = append(topos, d.Name)
		}
	}
	for _, t := range topos {
		if _, err := topology.ByName(t); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	strats := core.Strategies()
	if raw := splitList(q.Get("strategies")); len(raw) != 0 {
		strats = strats[:0]
		for _, s := range raw {
			if !validStrategy(core.Strategy(s)) {
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown strategy %q", s))
				return
			}
			strats = append(strats, core.Strategy(s))
		}
	}

	benches := splitList(q.Get("benchmarks"))
	for _, b := range benches {
		if _, err := qbench.ByName(b); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for item := range e.Sweep(r.Context(), topos, strats, benches, cfg) {
		if err := enc.Encode(item); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// jobSpecItem is one layout request in a POST /v1/jobs body. Optional
// knobs default like the query-parameter API: strategy qGDP-LG, config
// core.DefaultConfig(). Config, when present, replaces the default
// config wholesale before the scalar overrides apply — that is how
// cluster sub-jobs ship exact request identities between replicas.
type jobSpecItem struct {
	Topology string       `json:"topology"`
	Strategy string       `json:"strategy,omitempty"`
	Config   *core.Config `json:"config,omitempty"`
	Seed     *int64       `json:"seed,omitempty"`
	Mappings *int         `json:"mappings,omitempty"`
	Padding  *float64     `json:"padding,omitempty"`
}

// handleJobSubmit accepts {"requests": [{...}, ...]}, validates every
// item up front (a job either starts whole or not at all), and returns
// 202 with the job snapshot. A forwarded submission (cluster sub-job)
// runs wholly on this replica — one hop, like the synchronous API.
func handleJobSubmit(e *Engine, w http.ResponseWriter, r *http.Request) {
	var body struct {
		Requests []jobSpecItem `json:"requests"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job body: %w", err))
		return
	}
	reqs := make([]LayoutRequest, 0, len(body.Requests))
	for i, it := range body.Requests {
		strategy, err := resolveTarget(it.Topology, it.Strategy)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
			return
		}
		cfg := core.DefaultConfig()
		if it.Config != nil {
			cfg = *it.Config
			// The full-config path must satisfy the same invariants the
			// scalar knobs enforce — feed its own values back through
			// the shared validator.
			m, p := cfg.Mappings, cfg.GP.Padding
			if err := applyConfigOverrides(&cfg, nil, &m, &p); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
				return
			}
		}
		if err := applyConfigOverrides(&cfg, it.Seed, it.Mappings, it.Padding); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
			return
		}
		reqs = append(reqs, LayoutRequest{Topology: it.Topology, Strategy: strategy, Config: cfg})
	}
	submit := e.Jobs().Submit
	if r.Header.Get(cluster.ForwardHeader) != "" {
		ref := r.Header.Get(cluster.TraceHeader)
		submit = func(reqs []LayoutRequest) (JobView, error) {
			return e.Jobs().SubmitForwarded(reqs, ref)
		}
		if e.cluster != nil {
			// The submitter counts one forward per item (forwardGroup);
			// mirror that here so forwarded == forward_received
			// reconciles cluster-wide once sub-jobs drain.
			for range reqs {
				e.cluster.CountForwardReceived()
			}
		}
	}
	view, err := submit(reqs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// writeShed writes an admission rejection: the ShedError's status plus
// a whole-seconds Retry-After header computed from live queue state.
func writeShed(w http.ResponseWriter, shed *ShedError) {
	secs := int64(shed.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, shed.Status, shed)
}

// writeRequestError maps an engine error to its HTTP response,
// distinguishing the three ways a request dies early: shed by
// admission (429/503 + Retry-After), deadline blown mid-computation
// (504), and abandoned by the client (408). The deadline check reads
// the request context, not the error chain — a cancelled flight leader
// surfaces plain context.Canceled to followers whose own deadline
// expired, and the caller's verdict is what its context says.
func writeRequestError(e *Engine, ctx context.Context, w http.ResponseWriter, err error) {
	var shed *ShedError
	if errors.As(err, &shed) {
		// The shed itself was charged to the tenant where it was decided
		// (quota in qosHandler, queue in acquire).
		writeShed(w, shed)
		return
	}
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		kernstats.DeadlineBlown.Add(1)
		e.tenantAcct(ctx).DeadlineBlow()
		writeError(w, http.StatusGatewayTimeout, err)
	case ctx.Err() != nil:
		kernstats.ClientCancelled.Add(1)
		writeError(w, http.StatusRequestTimeout, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
