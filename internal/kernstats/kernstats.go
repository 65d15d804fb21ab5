// Package kernstats holds cheap atomic counters for the placement hot
// kernels: call counts, cumulative wall time, and scratch-buffer reuse
// versus fresh allocation. The service layer surfaces a snapshot on
// /statsz so a production deployment can watch kernel cost and verify
// the zero-allocation scratch pools are actually being reused (a pool
// that never reuses under steady load indicates a leak or misuse).
//
// Since the obs layer landed, kernstats is a thin naming shim over the
// obs metrics registry: every Counter here is an obs.Counter (rendered
// on /metricsz as qgdp_<name>_total), and every Kernel additionally
// feeds a qgdp_kernel_seconds{kernel=...} histogram. /statsz and
// /metricsz are therefore two views of one registry — the map-shaped
// snapshot for humans and scripts, the Prometheus exposition for
// scrapers. Kernel timings deliberately do NOT feed qgdp_stage_seconds:
// that family is reserved for span Ends, so stage sums reconcile with
// request wall time instead of double-counting kernels nested inside
// spans.
//
// Counters are recorded at whole-kernel granularity (one Observe per
// Place/Route/CancelNegativeCycles call), so the atomics are far off the
// inner loops and cost nothing measurable.
package kernstats

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// kernelVec is the per-kernel latency histogram family on /metricsz.
// Distinct from qgdp_stage_seconds (span durations): kernels run nested
// inside spans, so merging the families would double-count time.
var kernelVec = obs.NewHistVec("qgdp_kernel_seconds", "kernel", obs.DefBuckets)

// Kernel aggregates one hot kernel's counters.
type Kernel struct {
	name   string
	hist   *obs.Histogram
	ns     atomic.Int64
	reuses atomic.Int64
	allocs atomic.Int64
}

// The tracked kernels, in pipeline order.
var (
	GPlace    = register("gplace.place")
	MazeRoute = register("maze.route")
	MCFCancel = register("mcf.cancel")
	DPRefine  = register("dplace.refine")
)

var kernels []*Kernel

func register(name string) *Kernel {
	k := &Kernel{name: name, hist: kernelVec.With(name)}
	kernels = append(kernels, k)
	return k
}

// Observe records one kernel invocation and its duration. The
// histogram handle is cached at registration and Observe is
// allocation-free, so this stays legal on paths under the zero-alloc
// CI guards.
func (k *Kernel) Observe(d time.Duration) {
	k.ns.Add(d.Nanoseconds())
	k.hist.Observe(d.Seconds())
}

// ScratchReuse records that a call ran on recycled scratch buffers.
func (k *Kernel) ScratchReuse() { k.reuses.Add(1) }

// ScratchAlloc records that a call had to allocate fresh scratch.
func (k *Kernel) ScratchAlloc() { k.allocs.Add(1) }

// Snapshot is a point-in-time view of one kernel's counters.
type Snapshot struct {
	Calls         int64   `json:"calls"`
	TotalMs       float64 `json:"total_ms"`
	MeanUs        float64 `json:"mean_us"`
	ScratchReuses int64   `json:"scratch_reuses"`
	ScratchAllocs int64   `json:"scratch_allocs"`
}

// Counter is a named atomic registered in the obs metrics registry,
// used for event counts that are not whole-kernel timings:
// detailed-placement windows, store tier traffic, job queue events.
// Counters appear on /statsz next to the kernel snapshots and
// on /metricsz as qgdp_<name>_total.
type Counter = obs.Counter

// DPSerialWindows counts the candidate windows detailed placement
// examined, summed over every pass of every Refine call.
var DPSerialWindows = registerCounter("dplace.serial_windows")

// The tiered layout-store counters (process-wide across every store
// instance; a store's own Stats() gives the per-store view). A healthy
// warm deployment shows mem_hits dominating; disk_hits spiking right
// after a restart is the persistent tier rehydrating the memory LRU.
var (
	StoreMemHits  = registerCounter("store.mem_hits")
	StoreDiskHits = registerCounter("store.disk_hits")
	StoreMisses   = registerCounter("store.misses")
	StoreSpills   = registerCounter("store.spills")
	StoreGCEvict  = registerCounter("store.gc_evictions")
	StoreCorrupt  = registerCounter("store.corrupt_skipped")
)

// The async job-subsystem counters. queue_depth is a gauge (incremented
// on item enqueue, decremented on completion), so its current value is
// the number of job items waiting for or holding a worker slot.
// resumed counts job items re-scheduled from persisted manifests after
// a restart; persist_errors counts failed manifest writes (durability
// is best-effort, the job still runs).
var (
	JobsSubmitted     = registerCounter("jobs.submitted")
	JobsCompleted     = registerCounter("jobs.completed")
	JobQueueDepth     = registerCounter("jobs.queue_depth")
	JobsResumed       = registerCounter("jobs.resumed")
	JobsPersistErrors = registerCounter("jobs.persist_errors")
)

// The admission/QoS counters (see internal/service's admission layer).
// shed_queue counts requests rejected because the bounded queue (or its
// estimated wait) was over the configured limit; shed_quota counts
// requests rejected by a per-tenant token bucket; shed_fair_share
// counts requests rejected because one tenant held more than its fair
// share of the queue while others waited. deadline_rejected counts
// requests that arrived with an already-expired deadline (zero
// placement work done); deadline_blown counts requests whose deadline
// expired mid-computation (mapped to 504); client_cancelled counts
// requests abandoned by the client (mapped to 408).
var (
	ShedQueue        = registerCounter("service.shed_queue")
	ShedQuota        = registerCounter("service.shed_quota")
	ShedFairShare    = registerCounter("service.shed_fair_share")
	DeadlineRejected = registerCounter("service.deadline_rejected")
	DeadlineBlown    = registerCounter("service.deadline_blown")
	ClientCancelled  = registerCounter("service.client_cancelled")
)

// StoreGCRaces counts benign filesystem races between replicas sharing
// one cache directory: a delete or read that found the file already
// gone because another process GC'd it first. A nonzero value under a
// shared -cache-dir is expected traffic, not corruption.
var StoreGCRaces = registerCounter("store.gc_races")

// The cluster counters (see internal/cluster and the service forwarding
// layer). owned counts requests this replica served as ring owner;
// forwarded counts requests proxied to the owning replica;
// forward_received counts requests that arrived carrying the one-hop
// forward header (so cluster-wide, sum(forwarded) reconciles with
// sum(forward_received) when no fan-out is in flight);
// fallback_local counts requests computed locally because the owner was
// unreachable; store_short_circuit counts non-owned requests answered
// straight from the shared store without crossing the network. A
// balanced ring shows owned roughly equal across replicas; forwarded
// collapsing toward store_short_circuit means the shared disk tier is
// absorbing the cross-replica traffic.
var (
	ClusterOwned          = registerCounter("cluster.owned")
	ClusterForwarded      = registerCounter("cluster.forwarded")
	ClusterForwardRecv    = registerCounter("cluster.forward_received")
	ClusterFallback       = registerCounter("cluster.fallback_local")
	ClusterShortCircuit   = registerCounter("cluster.store_short_circuit")
	ClusterForwardErrors  = registerCounter("cluster.forward_errors")
	ClusterHeartbeatsSent = registerCounter("cluster.heartbeats_sent")
	ClusterHeartbeatsRecv = registerCounter("cluster.heartbeats_received")
)

// The cluster resilience counters. forward_retries counts second
// forward attempts against the next ring owner after a failed first
// attempt; breaker_opened counts closed→open circuit-breaker
// transitions; breaker_rejected counts forward attempts skipped
// because the peer's breaker was open (the request went to the next
// owner or local fallback without paying a timeout).
var (
	ClusterForwardRetries  = registerCounter("cluster.forward_retries")
	ClusterBreakerOpened   = registerCounter("cluster.breaker_opened")
	ClusterBreakerRejected = registerCounter("cluster.breaker_rejected")
)

// The dynamic-membership counters. members_joined counts peers added to
// this replica's view (seed contact, digest gossip, or an unknown
// sender's heartbeat); members_left counts graceful departures learned
// via gossip; refutations counts incarnation bumps made because a peer
// claimed this replica suspect/dead at our current incarnation.
var (
	ClusterMembersJoined = registerCounter("cluster.members_joined")
	ClusterMembersLeft   = registerCounter("cluster.members_left")
	ClusterRefutations   = registerCounter("cluster.refutations")
)

// The replication counters (see the service replication layer).
// sent/received count envelope pushes on the wire (sender/receiver
// side); duplicate counts envelopes the receiver already had; errors
// counts failed push or diff attempts (the envelope stays queued);
// dropped counts envelopes abandoned after exhausting retries or
// overflowing a peer's queue; hinted counts envelopes enqueued for a
// peer known to be down (hinted handoff — delivered on revival);
// anti_entropy_rounds counts sweep passes and repaired counts holes
// they found and re-pushed.
var (
	ReplicationSent        = registerCounter("replication.sent")
	ReplicationReceived    = registerCounter("replication.received")
	ReplicationDuplicates  = registerCounter("replication.duplicate")
	ReplicationErrors      = registerCounter("replication.errors")
	ReplicationDropped     = registerCounter("replication.dropped")
	ReplicationHinted      = registerCounter("replication.hinted")
	ReplicationAntiEntropy = registerCounter("replication.anti_entropy_rounds")
	ReplicationRepaired    = registerCounter("replication.repaired")
)

// The incremental-delta-engine counters (see internal/service's delta
// entry point). fast_repairs counts deltas served by the dirty-region
// fast path (regional re-legalization, no global placement);
// warm_starts counts deltas that re-ran the force loop from the base
// positions (structure-invalidating edits like a resize);
// cold_fallbacks counts deltas that ran the full cold pipeline because
// no base envelope was reachable or the fast path's safety valve
// tripped — the acceptance criterion "fell back, correct, counted".
// base_local/base_remote split where the base envelope came from: this
// replica's own store tiers versus a ring co-owner over the envelope
// endpoint.
var (
	DeltaFastRepairs   = registerCounter("delta.fast_repairs")
	DeltaWarmStarts    = registerCounter("delta.warm_starts")
	DeltaColdFallbacks = registerCounter("delta.cold_fallbacks")
	DeltaBaseLocal     = registerCounter("delta.base_local")
	DeltaBaseRemote    = registerCounter("delta.base_remote")
)

// ClusterReadRepair counts envelopes a replica pulled from the serving
// owner after a forwarded layout hit it did not have locally — the
// read-repair path that stops repeat traffic from crossing the network.
var ClusterReadRepair = registerCounter("cluster.read_repair")

// The gossip fan-out counters. gossip_full counts heartbeat probes that
// carried the full membership digest (the bounded random subset each
// round); gossip_lite counts probes that carried only the self row —
// pure liveness checks that keep detection latency while capping
// digest traffic at O(N·k) per round.
var (
	ClusterGossipFull = registerCounter("cluster.gossip_full")
	ClusterGossipLite = registerCounter("cluster.gossip_lite")
)

var counters []*Counter

// registerCounter creates a counter in the obs registry and tracks it
// for the map-shaped Counters() view. Registration happens only at
// package init (like register for kernels), so the global slice needs
// no locking against concurrent Counters() readers.
func registerCounter(name string) *Counter {
	c := obs.NewCounter(name)
	counters = append(counters, c)
	return c
}

// Counters returns the current value of every registered counter,
// keyed by name.
func Counters() map[string]int64 {
	out := make(map[string]int64, len(counters))
	for _, c := range counters {
		out[c.Name()] = c.Load()
	}
	return out
}

// All returns a snapshot of every registered kernel, keyed by name.
func All() map[string]Snapshot {
	out := make(map[string]Snapshot, len(kernels))
	for _, k := range kernels {
		s := Snapshot{
			Calls:         k.hist.Count(),
			ScratchReuses: k.reuses.Load(),
			ScratchAllocs: k.allocs.Load(),
		}
		ns := k.ns.Load()
		s.TotalMs = float64(ns) / 1e6
		if s.Calls > 0 {
			s.MeanUs = float64(ns) / float64(s.Calls) / 1e3
		}
		out[k.name] = s
	}
	return out
}
