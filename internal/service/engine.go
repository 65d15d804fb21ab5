// Package service is the layout-as-a-service layer: a concurrent
// placement engine wrapping internal/core behind caching, request
// coalescing, and a bounded worker pool, plus the HTTP API served by
// cmd/qgdp-serve.
//
// Every expensive pipeline stage is deterministic in its inputs —
// global placement in (topology, Build, GP params), legalization in
// (GP solution, strategy, DP params), fidelity averaging in (layout,
// benchmark, fidelity params, mapping count) — so each stage is cached
// by a canonical hash of those inputs: GP solutions and fidelity values
// in engine-local LRUs, finished layouts in a pluggable store.Store
// (optionally a disk-backed tier that survives restarts; see package
// store). Concurrent identical requests collapse into one computation
// via singleflight, and all computations run inside a bounded worker
// pool with context cancellation between stages.
//
// On top of the synchronous API sits the async job subsystem (Jobs):
// batches of layout requests submitted via POST /v1/jobs run through
// the same worker pool and parallelism budget, and their results land
// in the store so later synchronous requests hit.
//
// The experiments package drives its topology × strategy fan-out
// through the same engine, so the paper's Fig. 8/9 and Table II/III
// reproduction shares GP solutions and layouts across experiments and
// runs them in parallel.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernstats"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/topology"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent pipeline computations (default
	// GOMAXPROCS).
	Workers int
	// CacheSize is the per-cache entry capacity (GP solutions, layouts,
	// and fidelity values each get their own LRU; default 256).
	CacheSize int
	// ParallelBudget caps the total compute lanes the engine's
	// in-flight jobs may use for their internally parallel kernels (GP
	// repulsion shards and crossing-pair shards). 0 shares the
	// process-wide default budget (GOMAXPROCS lanes).
	// Whatever the budget grants, every job's output is bit-identical
	// to its serial computation.
	ParallelBudget int
	// Store holds legalized layouts, keyed by the canonical
	// (topology, strategy, seed, config) hash. nil means an ephemeral
	// in-memory LRU of CacheSize entries; pass a store.Tiered over
	// store.OpenDisk to survive restarts. The engine owns the store and
	// closes it in Close. Singleflight dedup stays engine-side — the
	// store only remembers results, it never computes.
	Store store.Store
	// Cluster, when non-nil, shards the request keyspace across
	// replicas: the HTTP layer forwards requests this replica does not
	// own to the ring owner (store-aware — shared-store hits never cross
	// the network), and job batches partition their items by owner. nil
	// means single-process serving. The engine owns the cluster and
	// closes it in Close.
	Cluster *cluster.Cluster
	// JobsDir, when non-empty, persists one manifest per job under it
	// (atomic writes) so a restarted replica reports — and on
	// Jobs().Resume() re-runs — unfinished batches instead of returning
	// 404. qgdp-serve points it at <cache-dir>/jobs.
	JobsDir string
	// TraceRing caps the in-memory ring of recent request traces served
	// on GET /tracez (default obs.DefaultRingSize).
	TraceRing int
	// SlowRequestThreshold, when positive, logs one structured JSON
	// line (with the request's three slowest spans) for every traced
	// request slower than it.
	SlowRequestThreshold time.Duration
	// SlowLogWriter receives the slow-request lines (default stderr).
	SlowLogWriter io.Writer
	// MaxQueue bounds how many admitted requests may wait for a worker
	// slot; a full queue sheds with 503 + Retry-After. 0 means
	// unbounded (the pre-admission behavior). Only synchronous requests
	// that passed the QoS front-end count — background job items never
	// queue here.
	MaxQueue int
	// MaxQueueWait sheds (503) when the estimated wait for a worker
	// slot — live mean compute latency times queue depth over workers —
	// exceeds it. 0 disables the estimate check.
	MaxQueueWait time.Duration
	// QuotaRPS is the per-tenant steady-state request rate (token
	// bucket, refilled continuously). 0 means no per-tenant quota.
	QuotaRPS float64
	// QuotaBurst is the token-bucket capacity (default max(1,
	// 2*QuotaRPS)).
	QuotaBurst int
	// DefaultDeadline bounds requests that carry no DeadlineHeader.
	// 0 means no implicit deadline.
	DefaultDeadline time.Duration
	// ReplicationRetryInterval is how often the replication queue
	// retries undelivered envelopes (failed pushes, hinted handoff for
	// down peers). Default 1s. Cluster mode only.
	ReplicationRetryInterval time.Duration
	// AntiEntropyInterval is the period of the anti-entropy sweep: this
	// replica offers the keys it holds to their current ring owners and
	// re-pushes whatever they are missing. 0 disables the sweep (pushes
	// and hinted handoff still run). Cluster mode only.
	AntiEntropyInterval time.Duration
	// Faults, when non-nil, injects the configured fault schedule at
	// the engine's instrumented sites (worker-slot acquisition, store
	// reads/writes, replication pushes). nil — the default — keeps
	// every site a no-op nil-check.
	Faults *faultinject.Injector
	// SLOs are the service objectives tracked over rolling 5m/1h
	// windows: request-latency thresholds and Eq. 7 fidelity floors
	// (see obs.ParseSLO for the grammar). Empty disables SLO tracking.
	SLOs []obs.SLOSpec
	// SLOBurnAlert is the fast-window burn-rate threshold above which
	// /healthz reports degraded (default obs.DefaultBurnAlert = 14.4).
	SLOBurnAlert float64
	// Profiler, when non-nil, is the continuous profiling ring indexed
	// by GET /profilez. The engine does not own it — qgdp-serve closes
	// it on shutdown.
	Profiler *obs.Profiler
}

// Engine is a concurrent layout/fidelity computation service over the
// core pipeline. All methods are safe for concurrent use.
type Engine struct {
	sem     chan struct{}
	budget  *parallel.Budget
	cluster *cluster.Cluster
	workers int

	// adm is the QoS front-end (nil when unconfigured); faults the
	// fault-injection schedule (nil in production); defaultDeadline the
	// implicit per-request budget.
	adm             *admission
	faults          *faultinject.Injector
	defaultDeadline time.Duration

	// layStore holds finished layouts (possibly persistently); the GP
	// and fidelity caches are engine-local LRUs — GP solutions are an
	// intermediate too large to spill usefully, fidelity values too
	// cheap to bother.
	layStore                       store.Store
	gpCache, fidCache              *store.LRU
	gpFlight, layFlight, fidFlight flightGroup

	jobs *Jobs

	// rep streams computed layouts to the other ring owners (push
	// replication + hinted handoff + anti-entropy); nil outside cluster
	// mode.
	rep *replicator

	// rec retains recent request traces for /tracez; slowThresh/slowW
	// drive the structured slow-request log.
	rec        *obs.Recorder
	slowThresh time.Duration
	slowMu     sync.Mutex
	slowW      io.Writer

	// acct attributes requests, cache hits, compute, queue wait, sheds
	// and deadline blows to tenants (/tenantz, qgdp_tenant_*); slo
	// scores latency and fidelity against the configured objectives
	// (nil when none are configured); profiler is the continuous
	// profiling ring behind /profilez (nil when off).
	acct      *obs.Accounting
	slo       *obs.SLOTracker
	burnAlert float64
	profiler  *obs.Profiler

	stats stats

	// Stage hooks, overridable in tests to observe or block mid-job.
	prepareFn  func(*topology.Device, core.Config) *netlist.Netlist
	legalizeFn func(context.Context, *netlist.Netlist, core.Strategy, core.Config) (*core.Layout, error)
	fidelityFn func(context.Context, *netlist.Netlist, string, core.Config) (float64, error)
}

// New builds an engine with the given options.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 256
	}
	var budget *parallel.Budget // nil: kernels use parallel.Default()
	if opts.ParallelBudget > 0 {
		budget = parallel.NewBudget(opts.ParallelBudget)
	}
	if opts.Store == nil {
		opts.Store = store.NewMemory(opts.CacheSize)
	}
	if opts.SlowLogWriter == nil {
		opts.SlowLogWriter = os.Stderr
	}
	e := &Engine{
		sem:             make(chan struct{}, opts.Workers),
		budget:          budget,
		cluster:         opts.Cluster,
		workers:         opts.Workers,
		adm:             newAdmission(opts.MaxQueue, opts.MaxQueueWait, opts.QuotaRPS, opts.QuotaBurst),
		faults:          opts.Faults,
		defaultDeadline: opts.DefaultDeadline,
		layStore:        opts.Store,
		rec:             obs.NewRecorder(opts.TraceRing),
		slowThresh:      opts.SlowRequestThreshold,
		slowW:           opts.SlowLogWriter,
		acct:            obs.NewAccounting(),
		slo:             obs.NewSLOTracker(opts.SLOs),
		burnAlert:       opts.SLOBurnAlert,
		profiler:        opts.Profiler,
		gpCache:         store.NewLRU(opts.CacheSize, nil),
		fidCache:        store.NewLRU(opts.CacheSize, nil),
		prepareFn: func(dev *topology.Device, cfg core.Config) *netlist.Netlist {
			return core.Prepare(dev, cfg)
		},
		legalizeFn: func(_ context.Context, gp *netlist.Netlist, s core.Strategy, cfg core.Config) (*core.Layout, error) {
			return core.Legalize(gp, s, cfg)
		},
		fidelityFn: func(_ context.Context, n *netlist.Netlist, bench string, cfg core.Config) (float64, error) {
			return core.AverageFidelity(n, bench, cfg)
		},
	}
	if e.burnAlert <= 0 {
		e.burnAlert = obs.DefaultBurnAlert
	}
	e.jobs = newJobs(e, opts.JobsDir)
	if e.cluster != nil {
		// Heartbeat digests carry this replica's lane utilization so
		// peers see load, not just liveness.
		e.cluster.SetLaneUtil(e.laneUtil)
		// Digests also carry a compact health summary (readiness, request
		// count, shed rate, max fast-window SLO burn) so every replica
		// holds a bounded-staleness health row for the whole fleet — the
		// /fleetz fallback for unreachable members.
		e.cluster.SetHealthSummary(func() cluster.HealthSummary {
			_, ok := e.Health()
			var shedRate float64
			if e.adm != nil {
				shedRate = e.adm.shedRate()
			}
			return cluster.HealthSummary{
				Healthy:     ok,
				Requests:    e.stats.requests.Load(),
				ShedRate:    shedRate,
				MaxFastBurn: e.slo.MaxFastBurn(),
				UnixMs:      time.Now().UnixMilli(),
			}
		})
		e.rep = newReplicator(e, opts.ReplicationRetryInterval, opts.AntiEntropyInterval)
	}
	return e
}

// Accounting returns the per-tenant accounting table.
func (e *Engine) Accounting() *obs.Accounting { return e.acct }

// SLO returns the SLO tracker (nil when no objectives are configured).
func (e *Engine) SLO() *obs.SLOTracker { return e.slo }

// Profiler returns the continuous profiling ring (nil when off).
func (e *Engine) Profiler() *obs.Profiler { return e.profiler }

// tenantAcct resolves the request's tenant stats row (nil — a no-op
// sink — when the request carries no tenant). Allocation-free for
// known tenants, so it can sit on the cache-hit fast path.
func (e *Engine) tenantAcct(ctx context.Context) *obs.TenantStats {
	return e.acct.Tenant(tenantFrom(ctx))
}

// Close stops accepting new jobs, stops cluster heartbeats, and closes
// the layout store. In-flight job items are cancelled; already-spilled
// layouts stay durable.
func (e *Engine) Close() error {
	e.jobs.close()
	if e.rep != nil {
		e.rep.close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	return e.layStore.Close()
}

// Drain flushes what a graceful shutdown can still deliver: pending
// replication envelopes are pushed to every reachable peer until the
// queue empties or ctx expires. Hints held for peers that are still
// down die with the process — the anti-entropy sweep on the surviving
// owners repairs those holes. Callers drain after the HTTP server has
// stopped accepting (so no new envelopes arrive) and before Close.
func (e *Engine) Drain(ctx context.Context) {
	if e.rep != nil {
		e.rep.drain(ctx)
	}
}

// Jobs returns the engine's async batch-job subsystem.
func (e *Engine) Jobs() *Jobs { return e.jobs }

// Cluster returns the sharding layer, nil in single-process mode.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Recorder returns the recent-trace ring behind GET /tracez.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// recordTrace files a finished trace into the ring, scores its wall
// time against the latency SLOs, and emits the slow-request log line —
// carrying trace_id and tenant so the line joins against /tracez and
// /tenantz — when the request exceeded the threshold.
func (e *Engine) recordTrace(path, tenant string, td *obs.TraceData) {
	if td == nil {
		return
	}
	e.rec.Record(td)
	e.slo.ObserveLatency(time.Duration(td.DurMs * float64(time.Millisecond)))
	if e.slowThresh <= 0 || td.DurMs < float64(e.slowThresh)/float64(time.Millisecond) {
		return
	}
	line, err := json.Marshal(struct {
		Ts       time.Time         `json:"ts"`
		Msg      string            `json:"msg"`
		Path     string            `json:"path"`
		Tenant   string            `json:"tenant,omitempty"`
		DurMs    float64           `json:"dur_ms"`
		TraceID  string            `json:"trace_id"`
		TopSpans []obs.SpanSummary `json:"top_spans"`
	}{td.Start, "slow request", path, tenant, td.DurMs, td.ID, td.Top(3)})
	if err != nil {
		return
	}
	e.slowMu.Lock()
	fmt.Fprintf(e.slowW, "%s\n", line)
	e.slowMu.Unlock()
}

// HealthStore is the store section of the /healthz readiness payload.
type HealthStore struct {
	DiskHealthy bool  `json:"disk_healthy"`
	WriteErrors int64 `json:"write_errors"`
	DiskFiles   int64 `json:"disk_files"`
}

// HealthCluster is the cluster section of the /healthz readiness
// payload. PeersTotal includes this replica; OpenBreakers counts peers
// whose forwarding circuit breaker is currently open.
type HealthCluster struct {
	PeersUp      int `json:"peers_up"`
	PeersTotal   int `json:"peers_total"`
	OpenBreakers int `json:"open_breakers"`
}

// HealthAdmission is the QoS section of the /healthz readiness payload,
// present when admission control is configured. ShedRate1m is the shed
// fraction over the last minute — a load balancer can use it to steer
// traffic away from an overloaded replica before it starts failing.
type HealthAdmission struct {
	Queued     int     `json:"queued"`
	ShedRate1m float64 `json:"shed_rate_1m"`
}

// HealthSLO is the SLO section of the /healthz readiness payload,
// present when objectives are configured. Exceeded means some
// objective's fast-window (5m) burn rate is at or above BurnAlert —
// the error budget is being spent too fast to sustain — and degrades
// the replica.
type HealthSLO struct {
	MaxFastBurn float64 `json:"max_fast_burn"`
	BurnAlert   float64 `json:"burn_alert"`
	Exceeded    bool    `json:"exceeded"`
}

// HealthView is the /healthz body: the original liveness contract
// (status "ok") extended with readiness detail.
type HealthView struct {
	Status    string           `json:"status"`
	Store     HealthStore      `json:"store"`
	Admission *HealthAdmission `json:"admission,omitempty"`
	Cluster   *HealthCluster   `json:"cluster,omitempty"`
	SLO       *HealthSLO       `json:"slo,omitempty"`
}

// Health reports readiness: ok=false (HTTP 503) when the disk tier is
// erroring, since a replica that cannot spill loses restart durability
// and shared-store short-circuiting. Down peers are reported but do
// not gate readiness — a partitioned replica still serves its share.
func (e *Engine) Health() (HealthView, bool) {
	ss := e.layStore.Stats()
	hv := HealthView{
		Status: "ok",
		Store: HealthStore{
			DiskHealthy: ss.DiskHealthy,
			WriteErrors: ss.WriteErrors,
			DiskFiles:   ss.DiskFiles,
		},
	}
	if e.adm != nil {
		hv.Admission = &HealthAdmission{
			Queued:     e.adm.queueDepth(),
			ShedRate1m: e.adm.shedRate(),
		}
	}
	if e.cluster != nil {
		cs := e.cluster.Stats()
		hc := &HealthCluster{
			PeersUp:      1,
			PeersTotal:   len(cs.PeerUp) + 1,
			OpenBreakers: cs.OpenBreakers,
		}
		for _, up := range cs.PeerUp {
			if up {
				hc.PeersUp++
			}
		}
		hv.Cluster = hc
	}
	ok := true
	if e.slo != nil {
		hs := &HealthSLO{
			MaxFastBurn: e.slo.MaxFastBurn(),
			BurnAlert:   e.burnAlert,
		}
		hs.Exceeded = hs.MaxFastBurn >= hs.BurnAlert
		hv.SLO = hs
		if hs.Exceeded {
			// Burning the fast window at alert rate means the replica is
			// failing its objectives right now: degrade so load balancers
			// steer away while the budget recovers.
			ok = false
		}
	}
	if !ss.DiskHealthy {
		ok = false
	}
	if !ok {
		hv.Status = "degraded"
	}
	return hv, ok
}

// stats holds the engine counters behind /statsz.
type stats struct {
	requests                atomic.Int64
	layoutHits, layoutMiss  atomic.Int64
	gpHits, gpMiss          atomic.Int64
	fidHits, fidMiss        atomic.Int64
	computed                atomic.Int64 // pipeline stage executions (GP, legalize, fidelity)
	sharedFlights           atomic.Int64 // requests that joined an in-flight computation
	inFlight                atomic.Int64 // computations currently executing
	latencyNs, latencyCount atomic.Int64
	// computeNs/computeCount track only cache-miss computations (the
	// work a queued request is actually waiting behind), feeding the
	// admission layer's queue-wait estimate. latencyNs above averages
	// over hits too, which would underestimate the backlog badly.
	computeNs, computeCount atomic.Int64
}

// StatsSnapshot is a point-in-time view of the engine counters.
type StatsSnapshot struct {
	Requests       int64 `json:"requests"`
	LayoutHits     int64 `json:"layout_hits"`
	LayoutMisses   int64 `json:"layout_misses"`
	GPHits         int64 `json:"gp_hits"`
	GPMisses       int64 `json:"gp_misses"`
	FidelityHits   int64 `json:"fidelity_hits"`
	FidelityMisses int64 `json:"fidelity_misses"`
	Computed       int64 `json:"computed"`
	SharedFlights  int64 `json:"shared_flights"`
	InFlight       int64 `json:"in_flight"`
	// MeanLatencyMs averages the wall time of Layout/Fidelity calls
	// (hits and misses alike).
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	// Kernels reports per-hot-kernel call counts, cumulative time, and
	// scratch reuse (process-wide; see package kernstats). A healthy
	// steady-state engine shows scratch_reuses far above scratch_allocs.
	Kernels map[string]kernstats.Snapshot `json:"kernels,omitempty"`
	// Counters are the process-wide event counters (detailed-placement
	// windows, store tiers, jobs, cluster and delta traffic; see
	// package kernstats).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Parallel snapshots the engine's lane budget: grants, denials,
	// tokens in use, and the high-water mark of concurrently running
	// pool lanes (never above capacity — the no-oversubscription
	// invariant).
	Parallel parallel.Stats `json:"parallel"`
	// Store is the layout store's per-tier view: memory hits, disk
	// hits (restart rehydration), spills, GC evictions, corrupt files
	// skipped. LayoutHits above counts any-tier hits; Store splits them.
	Store store.Stats `json:"store"`
	// Jobs snapshots the async batch-job subsystem, including the
	// current queue depth.
	Jobs JobsStats `json:"jobs"`
	// Admission, present only when the QoS front-end is configured,
	// reports the bounded queue's live state; the per-reason shed
	// counts (service.shed_*) live in Counters.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Cluster, present only in cluster mode, reports this replica's
	// routing outcomes (owned/forwarded/fallback_local/short_circuit)
	// and per-peer liveness (peer_up) so load imbalance across the ring
	// is observable next to the budget stats.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Replication, present only in cluster mode, reports the push
	// replication pipeline: envelopes sent/received, duplicates
	// suppressed, the pending (retry + hinted handoff) queue depth, and
	// anti-entropy repairs.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// SLOs, present when objectives are configured, reports each
	// objective's rolling-window compliance and burn rate (two rows per
	// objective: 5m then 1h).
	SLOs []obs.SLOState `json:"slos,omitempty"`
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() StatsSnapshot {
	s := StatsSnapshot{
		Requests:       e.stats.requests.Load(),
		LayoutHits:     e.stats.layoutHits.Load(),
		LayoutMisses:   e.stats.layoutMiss.Load(),
		GPHits:         e.stats.gpHits.Load(),
		GPMisses:       e.stats.gpMiss.Load(),
		FidelityHits:   e.stats.fidHits.Load(),
		FidelityMisses: e.stats.fidMiss.Load(),
		Computed:       e.stats.computed.Load(),
		SharedFlights:  e.stats.sharedFlights.Load(),
		InFlight:       e.stats.inFlight.Load(),
		Kernels:        kernstats.All(),
		Counters:       kernstats.Counters(),
		Parallel:       e.budget.Stats(),
		Store:          e.layStore.Stats(),
		Jobs:           e.jobs.Stats(),
	}
	if n := e.stats.latencyCount.Load(); n > 0 {
		s.MeanLatencyMs = float64(e.stats.latencyNs.Load()) / float64(n) / 1e6
	}
	if e.adm != nil {
		s.Admission = &AdmissionStats{
			Queued:     e.adm.queueDepth(),
			MaxQueue:   e.adm.maxQueue,
			Shed:       e.adm.shed.Load(),
			ShedRate1m: e.adm.shedRate(),
			EstWaitMs:  float64(e.estQueueWait().Nanoseconds()) / 1e6,
		}
	}
	if e.cluster != nil {
		cs := e.cluster.Stats()
		s.Cluster = &cs
	}
	if e.rep != nil {
		rs := e.rep.stats()
		s.Replication = &rs
	}
	s.SLOs = e.slo.Snapshot()
	return s
}

// LayoutRequest identifies one legalized layout. The cache key is the
// canonical hash of (Topology, Strategy, Config) — the GP seed rides in
// Config.GP.Seed. Device optionally supplies a pre-built device (the
// experiments drivers pass their own instances); when nil the topology
// is resolved by name. Device.Name is the cache identity, so custom
// devices must use distinct names.
type LayoutRequest struct {
	Topology string           `json:"topology"`
	Strategy core.Strategy    `json:"strategy"`
	Config   core.Config      `json:"config"`
	Device   *topology.Device `json:"-"`
}

// LayoutResult is a computed or cached layout.
type LayoutResult struct {
	Layout *core.Layout
	// CacheHit reports the layout came straight from the LRU; Shared
	// reports the request joined another request's in-flight
	// computation. At most one is true.
	CacheHit bool
	Shared   bool
}

// FidelityRequest identifies one averaged-fidelity evaluation: the
// layout request plus the benchmark circuit name.
type FidelityRequest struct {
	LayoutRequest
	Benchmark string `json:"benchmark"`
}

// FidelityResult is a computed or cached fidelity value.
type FidelityResult struct {
	Fidelity float64
	CacheHit bool
	Shared   bool
}

// keyOf hashes any JSON-marshalable value into a stable hex key. Config
// structs are plain exported scalars, so encoding/json is canonical
// (struct order, no maps).
func keyOf(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Config structs cannot fail to marshal; a custom Device cannot
		// reach here (it is excluded from the key).
		panic(fmt.Sprintf("service: unhashable request: %v", err))
	}
	sum := sha256.Sum256(append([]byte(kind+"\x00"), b...))
	return kind + ":" + hex.EncodeToString(sum[:])
}

func layoutKey(req LayoutRequest) string {
	return keyOf("layout", struct {
		Topology string
		Strategy core.Strategy
		Config   core.Config
	}{req.Topology, req.Strategy, req.Config})
}

// gpKey excludes the strategy: all strategies legalize clones of the
// same GP solution, exactly as the paper's methodology prescribes.
func gpKey(topo string, cfg core.Config) string {
	return keyOf("gp", struct {
		Topology string
		Build    topology.BuildParams
		GP       any
	}{topo, cfg.Build, cfg.GP})
}

func fidelityKey(req FidelityRequest) string {
	return keyOf("fidelity", struct {
		Topology  string
		Strategy  core.Strategy
		Benchmark string
		Config    core.Config
	}{req.Topology, req.Strategy, req.Benchmark, req.Config})
}

// withBudget stamps the engine's parallelism budget into the params of
// the internally parallel stages (GP repulsion, crossing-pair metrics)
// before a computation runs. The stamped fields carry json:"-"
// and are excluded from request hashing, so cache keys and layouts are
// unchanged — the budget only decides how many lanes compute them.
func (e *Engine) withBudget(cfg core.Config) core.Config {
	cfg.GP.Par = e.budget
	cfg.Metrics.Par = e.budget
	return cfg
}

// withCancel threads the request context's cancellation into the
// placement kernels: gplace checks it per force-directed iteration,
// dplace before every window. Like Par/Obs, the Cancel fields carry
// json:"-" and never reach cache keys; an aborted
// computation surfaces context.Canceled before any partial result can
// be cached (Legalize errors skip the store Put, and gpFor re-checks
// ctx before caching a GP solution).
func (e *Engine) withCancel(ctx context.Context, cfg core.Config) core.Config {
	cfg.GP.Cancel = ctx.Done()
	cfg.DP.Cancel = ctx.Done()
	return cfg
}

// ParallelStats snapshots the engine's parallelism budget (the shared
// process-wide budget when none was configured).
func (e *Engine) ParallelStats() parallel.Stats {
	return e.budget.Stats()
}

// retryShared reports whether a flight error is another request's
// context cancellation leaking to a follower whose own context is
// still live. The computation runs under the leader's context, so a
// cancelled leader fails every coalesced request; live followers must
// retry (and lead the next flight themselves) instead of surfacing a
// cancellation they never asked for.
func retryShared(ctx context.Context, err error, shared bool) bool {
	return shared && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// acquire takes a worker slot, honoring cancellation while queued.
// Requests that passed the QoS front-end (tenant in ctx) first pass
// queue admission: a full or over-slow bounded queue sheds them with a
// *ShedError before they start waiting, and fair-share accounting
// bounds any one tenant's queue occupancy while others wait. The
// reserved queue slot is always returned — on success, cancellation,
// or shed — so admission can never strand capacity.
func (e *Engine) acquire(ctx context.Context) (release func(), err error) {
	if err := e.faults.Fire(ctx, faultinject.SiteWorkerSlot); err != nil {
		return nil, err
	}
	if tenant := tenantFrom(ctx); tenant != "" && e.adm != nil {
		leave, shed := e.adm.enqueue(tenant, e.estQueueWait())
		if shed != nil {
			countShed(shed)
			e.acct.Tenant(tenant).Shed()
			return nil, shed
		}
		defer leave()
	}
	qstart := time.Now()
	select {
	case e.sem <- struct{}{}:
		e.tenantAcct(ctx).AddQueueWait(time.Since(qstart))
		return func() { <-e.sem }, nil
	case <-ctx.Done():
		e.tenantAcct(ctx).AddQueueWait(time.Since(qstart))
		return nil, ctx.Err()
	}
}

// countShed files a shed verdict under its per-reason counter.
func countShed(shed *ShedError) {
	if shed.Status == 429 {
		kernstats.ShedFairShare.Add(1)
	} else {
		kernstats.ShedQueue.Add(1)
	}
}

// estQueueWait estimates how long a newly queued request will wait for
// a worker slot: the live mean compute latency times the number of
// requests ahead of it, spread over the pool. Zero until the first
// computation finishes — an idle engine never sheds on the estimate.
func (e *Engine) estQueueWait() time.Duration {
	n := e.stats.computeCount.Load()
	if n == 0 {
		return 0
	}
	mean := time.Duration(e.stats.computeNs.Load() / n)
	waiting := int64(e.adm.queueDepth()) + e.stats.inFlight.Load()
	return mean * time.Duration(waiting) / time.Duration(e.workers)
}

// Layout returns the legalized layout for the request, computing it at
// most once across concurrent identical requests. The returned layout
// is shared and must be treated as immutable; clone its Netlist before
// modifying.
func (e *Engine) Layout(ctx context.Context, req LayoutRequest) (LayoutResult, error) {
	start := time.Now()
	e.stats.requests.Add(1)
	defer func() {
		e.stats.latencyNs.Add(time.Since(start).Nanoseconds())
		e.stats.latencyCount.Add(1)
	}()

	sp := obs.SpanFrom(ctx)
	key := layoutKey(req)
	if lay, ok := e.storeGet(ctx, key, sp); ok {
		e.stats.layoutHits.Add(1)
		e.tenantAcct(ctx).CacheHit()
		sp.AttrBool("cache_hit", true)
		return LayoutResult{Layout: lay, CacheHit: true}, nil
	}

	qs := sp.Child("queue.wait")
	release, err := e.acquire(ctx)
	qs.End()
	if err != nil {
		return LayoutResult{}, err
	}
	defer release()

	// The store may have filled while this request queued for a slot;
	// engine hit/miss is decided only now so each request counts exactly
	// once. Peek, not Get — the store already counted this request's
	// miss above. This read is a store.read fault site too: an injected
	// failure degrades it to the same recompute path.
	if lay, ok := e.storePeek(ctx, key); ok {
		e.stats.layoutHits.Add(1)
		e.tenantAcct(ctx).CacheHit()
		sp.AttrBool("cache_hit", true)
		return LayoutResult{Layout: lay, CacheHit: true}, nil
	}
	e.stats.layoutMiss.Add(1)

	lay, err, shared := e.layoutFlightDo(ctx, key, req)
	if err != nil {
		return LayoutResult{}, err
	}
	if shared {
		e.stats.sharedFlights.Add(1)
		sp.AttrBool("shared", true)
	}
	return LayoutResult{Layout: lay, Shared: shared}, nil
}

// storeGet is a Get with per-tier spans when the store supports them
// (and a plain wrapper span otherwise). A nil span costs nothing. An
// injected store.read fault is served as a miss: the layout is
// recomputed, exactly how a failing disk tier degrades.
func (e *Engine) storeGet(ctx context.Context, key string, sp *obs.Span) (*core.Layout, bool) {
	if e.faults.Fire(ctx, faultinject.SiteStoreRead) != nil {
		return nil, false
	}
	if ts, ok := e.layStore.(store.Traced); ok {
		return ts.GetTraced(key, sp)
	}
	gs := sp.Child("store.get")
	lay, ok := e.layStore.Get(key)
	gs.AttrBool("hit", ok)
	gs.End()
	return lay, ok
}

// storePeek is Peek behind the same store.read fault site as storeGet.
func (e *Engine) storePeek(ctx context.Context, key string) (*core.Layout, bool) {
	if e.faults.Fire(ctx, faultinject.SiteStoreRead) != nil {
		return nil, false
	}
	return e.layStore.Peek(key)
}

// layoutFlightDo coalesces concurrent identical layout computations.
// The caller must hold a worker slot.
func (e *Engine) layoutFlightDo(ctx context.Context, key string, req LayoutRequest) (*core.Layout, error, bool) {
	for {
		v, err, shared := e.layFlight.Do(ctx, key, func() (any, error) {
			lay, err := e.computeLayout(ctx, req)
			if err != nil {
				return nil, err
			}
			if e.faults.Fire(ctx, faultinject.SiteStoreWrite) != nil {
				// Injected write failure: the layout is still served,
				// it just is not remembered — exactly a disk-tier error.
				return lay, nil
			}
			ps := obs.SpanFrom(ctx).Child("store.put")
			e.layStore.Put(key, lay)
			ps.End()
			// Stream the envelope to the other ring owners (async, retried)
			// so disk-less peers can serve this key without recompute.
			if e.rep != nil {
				e.rep.replicate(key, lay)
			}
			return lay, nil
		})
		if retryShared(ctx, err, shared) {
			continue
		}
		if err != nil {
			return nil, err, shared
		}
		return v.(*core.Layout), nil, shared
	}
}

// computeLayout runs GP (cached) then legalization, checking
// cancellation between stages. Caller holds a worker slot.
func (e *Engine) computeLayout(ctx context.Context, req LayoutRequest) (*core.Layout, error) {
	gp, err := e.gpFor(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.stats.inFlight.Add(1)
	defer e.stats.inFlight.Add(-1)
	e.stats.computed.Add(1)
	start := time.Now()
	ts := e.tenantAcct(ctx)
	defer func() {
		d := time.Since(start)
		e.stats.computeNs.Add(d.Nanoseconds())
		e.stats.computeCount.Add(1)
		ts.AddCompute(d)
	}()
	cfg := e.withCancel(ctx, e.withBudget(req.Config))
	// Pipeline stages hang their spans under the (leader) request's
	// span; followers coalesced into this flight share the tree via the
	// recorded trace, not their own.
	cfg.Obs = obs.SpanFrom(ctx)
	lay, err := e.legalizeFn(ctx, gp, req.Strategy, cfg)
	if err != nil {
		return nil, err
	}
	attachReport(lay, cfg)
	return lay, nil
}

// attachReport computes lay's Table III report once, when the layout is
// computed, so every later hit on any store tier serves it without
// re-running the metrics pass. The hotspot list is copied to its exact
// length: the report lives as long as the layout stays cached.
func attachReport(lay *core.Layout, cfg core.Config) {
	rep := core.Analyze(lay.Netlist, cfg)
	rep.Hotspots = slices.Clone(rep.Hotspots)
	lay.Report = rep
}

// gpFor returns the (immutable) global-placement solution for the
// request's topology and config, cached and singleflighted so all
// strategies of one topology share one GP run. Legalization clones it.
func (e *Engine) gpFor(ctx context.Context, req LayoutRequest) (*netlist.Netlist, error) {
	key := gpKey(req.Topology, req.Config)
	if v, ok := e.gpCache.Get(key); ok {
		e.stats.gpHits.Add(1)
		return v.(*netlist.Netlist), nil
	}
	e.stats.gpMiss.Add(1)
	for {
		v, err, shared := e.gpFlight.Do(ctx, key, func() (any, error) {
			dev := req.Device
			if dev == nil {
				var err error
				if dev, err = topology.ByName(req.Topology); err != nil {
					return nil, err
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			e.stats.inFlight.Add(1)
			defer e.stats.inFlight.Add(-1)
			e.stats.computed.Add(1)
			cfg := e.withCancel(ctx, e.withBudget(req.Config))
			cfg.Obs = obs.SpanFrom(ctx)
			gp := e.prepareFn(dev, cfg)
			// A cancellation mid-placement leaves gp partially iterated
			// (gplace returns early without error). Never cache it — the
			// next request must recompute from scratch.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			e.gpCache.Add(key, gp)
			return gp, nil
		})
		if retryShared(ctx, err, shared) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return v.(*netlist.Netlist), nil
	}
}

// Fidelity returns the benchmark's averaged program fidelity on the
// requested layout, computing the layout first if it is not cached.
func (e *Engine) Fidelity(ctx context.Context, req FidelityRequest) (FidelityResult, error) {
	start := time.Now()
	e.stats.requests.Add(1)
	defer func() {
		e.stats.latencyNs.Add(time.Since(start).Nanoseconds())
		e.stats.latencyCount.Add(1)
	}()

	sp := obs.SpanFrom(ctx)
	key := fidelityKey(req)
	if v, ok := e.fidCache.Get(key); ok {
		e.stats.fidHits.Add(1)
		e.tenantAcct(ctx).CacheHit()
		e.slo.ObserveFidelity(v.(float64))
		sp.AttrBool("cache_hit", true)
		return FidelityResult{Fidelity: v.(float64), CacheHit: true}, nil
	}

	qs := sp.Child("queue.wait")
	release, err := e.acquire(ctx)
	qs.End()
	if err != nil {
		return FidelityResult{}, err
	}
	defer release()

	if v, ok := e.fidCache.Get(key); ok {
		e.stats.fidHits.Add(1)
		e.tenantAcct(ctx).CacheHit()
		e.slo.ObserveFidelity(v.(float64))
		return FidelityResult{Fidelity: v.(float64), CacheHit: true}, nil
	}
	e.stats.fidMiss.Add(1)

	for {
		v, err, shared := e.fidFlight.Do(ctx, key, func() (any, error) {
			lay, err := e.layoutForNested(ctx, req.LayoutRequest)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			e.stats.inFlight.Add(1)
			defer e.stats.inFlight.Add(-1)
			e.stats.computed.Add(1)
			cstart := time.Now()
			ts := e.tenantAcct(ctx)
			defer func() {
				d := time.Since(cstart)
				e.stats.computeNs.Add(d.Nanoseconds())
				e.stats.computeCount.Add(1)
				ts.AddCompute(d)
			}()
			fcfg := req.Config
			fcfg.Obs = obs.SpanFrom(ctx)
			f, err := e.fidelityFn(ctx, lay.Netlist, req.Benchmark, fcfg)
			if err != nil {
				return nil, err
			}
			e.fidCache.Add(key, f)
			return f, nil
		})
		if retryShared(ctx, err, shared) {
			continue
		}
		if err != nil {
			return FidelityResult{}, err
		}
		if shared {
			e.stats.sharedFlights.Add(1)
		}
		e.slo.ObserveFidelity(v.(float64))
		return FidelityResult{Fidelity: v.(float64), Shared: shared}, nil
	}
}

// layoutForNested resolves a layout from within another computation.
// The caller already holds a worker slot, so it must not acquire a
// second one (that would deadlock a single-worker pool). It also skips
// the layout hit/miss counters — those count client layout requests,
// and this resolution belongs to a fidelity request counted elsewhere.
func (e *Engine) layoutForNested(ctx context.Context, req LayoutRequest) (*core.Layout, error) {
	key := layoutKey(req)
	if lay, ok := e.storeGet(ctx, key, obs.SpanFrom(ctx)); ok {
		return lay, nil
	}
	lay, err, _ := e.layoutFlightDo(ctx, key, req)
	return lay, err
}

// SweepItem is one topology × strategy result of a Sweep stream.
type SweepItem struct {
	Topology string         `json:"topology"`
	Strategy core.Strategy  `json:"strategy"`
	Report   metrics.Report `json:"report"`
	// Fidelity maps benchmark name to averaged program fidelity;
	// MeanFidelity averages across the requested benchmarks.
	Fidelity     map[string]float64 `json:"fidelity,omitempty"`
	MeanFidelity float64            `json:"mean_fidelity"`
	QubitMs      float64            `json:"tq_ms"`
	ResonatorMs  float64            `json:"te_ms"`
	CacheHit     bool               `json:"cache_hit"`
	Err          string             `json:"error,omitempty"`
}

// Sweep evaluates every topology × strategy combination concurrently
// and streams results in completion order. The channel closes when all
// combinations finish or ctx is cancelled.
func (e *Engine) Sweep(ctx context.Context, topos []string, strats []core.Strategy, benches []string, cfg core.Config) <-chan SweepItem {
	out := make(chan SweepItem)
	var wg sync.WaitGroup
	for _, topo := range topos {
		for _, s := range strats {
			wg.Add(1)
			go func(topo string, s core.Strategy) {
				defer wg.Done()
				item := e.sweepOne(ctx, topo, s, benches, cfg)
				select {
				case out <- item:
				case <-ctx.Done():
				}
			}(topo, s)
		}
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

func (e *Engine) sweepOne(ctx context.Context, topo string, s core.Strategy, benches []string, cfg core.Config) SweepItem {
	item := SweepItem{Topology: topo, Strategy: s}
	req := LayoutRequest{Topology: topo, Strategy: s, Config: cfg}
	res, err := e.Layout(ctx, req)
	if err != nil {
		item.Err = err.Error()
		return item
	}
	item.CacheHit = res.CacheHit
	item.Report = res.Layout.Report
	item.QubitMs = float64(res.Layout.QubitTime.Nanoseconds()) / 1e6
	item.ResonatorMs = float64(res.Layout.ResonatorTime.Nanoseconds()) / 1e6
	if len(benches) == 0 {
		return item
	}
	item.Fidelity = make(map[string]float64, len(benches))
	var sum float64
	for _, b := range benches {
		fr, err := e.Fidelity(ctx, FidelityRequest{LayoutRequest: req, Benchmark: b})
		if err != nil {
			item.Err = err.Error()
			return item
		}
		item.Fidelity[b] = fr.Fidelity
		sum += fr.Fidelity
	}
	item.MeanFidelity = sum / float64(len(benches))
	return item
}
