// Package parallel provides the engine-wide parallelism budget and the
// persistent worker pool behind every intra-job parallel kernel:
// gplace's sharded repulsion loop and the sharded crossing-pair metric.
//
// The problem it solves is oversubscription. Each of those kernels is
// internally parallel, and the serving layer runs many placement jobs
// at once — if every kernel spawned GOMAXPROCS goroutines per call (as
// the PR-2 repulsion loop did, once per force iteration), N concurrent
// jobs would run N×GOMAXPROCS compute goroutines on GOMAXPROCS cores.
// A Budget caps the total number of compute lanes handed out across
// all jobs: a kernel asks for the lanes it could use, receives what is
// available right now (never blocking, never less than its own calling
// goroutine), and returns them when done. Under load every job
// degrades gracefully toward serial execution instead of thrashing.
//
// Lanes above the caller's own goroutine execute on a persistent
// worker pool owned by the budget, so a kernel that runs thousands of
// parallel rounds (220 force iterations per placement) reuses the same
// goroutines instead of respawning them.
//
// Determinism is the caller's contract, not this package's: every
// kernel built on a Grant must produce bit-identical results for any
// lane count (see gplace's shard replay and metrics' ordered shard
// merge). The budget only decides how many lanes run, never what they
// compute.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Budget is a token bucket bounding the compute lanes running at once
// across every kernel that shares it. The zero capacity is not useful;
// construct with NewBudget. A nil *Budget behaves like Default().
type Budget struct {
	capacity int
	tokens   chan struct{}
	pool     *pool

	granted   atomic.Int64
	denied    atomic.Int64
	poolTasks atomic.Int64
	active    atomic.Int64 // pool lanes currently executing
	peak      atomic.Int64 // high-water mark of active
}

// NewBudget returns a budget allowing up to capacity concurrent lanes
// (including the calling goroutines of the kernels that acquire from
// it). capacity < 1 is clamped to 1. The persistent worker pool is
// sized to the capacity and spawned lazily on the first grant that can
// use it.
func NewBudget(capacity int) *Budget {
	if capacity < 1 {
		capacity = 1
	}
	b := &Budget{capacity: capacity, tokens: make(chan struct{}, capacity)}
	for i := 0; i < capacity; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

var defaultBudget = sync.OnceValue(func() *Budget {
	return NewBudget(runtime.GOMAXPROCS(0))
})

// Default returns the process-wide budget, sized to GOMAXPROCS. Kernel
// entry points fall back to it when no budget was injected, so CLI
// paths get the same engine-wide clamp the serving layer configures
// explicitly.
func Default() *Budget { return defaultBudget() }

// Capacity returns the lane cap the budget was built with.
func (b *Budget) Capacity() int {
	if b == nil {
		return Default().Capacity()
	}
	return b.capacity
}

// Stats is a point-in-time view of a budget's counters.
type Stats struct {
	Capacity int `json:"capacity"`
	// TokensGranted / TokensDenied count lanes handed out and lanes
	// requested but unavailable, across all Acquire calls.
	TokensGranted int64 `json:"tokens_granted"`
	TokensDenied  int64 `json:"tokens_denied"`
	// TokensInUse is the number of lanes currently held by grants.
	TokensInUse int64 `json:"tokens_in_use"`
	// PoolTasks counts parallel-round executions on pool workers.
	PoolTasks int64 `json:"pool_tasks"`
	// PeakExtraLanes is the high-water mark of pool lanes running
	// concurrently; it can never exceed Capacity.
	PeakExtraLanes int64 `json:"peak_extra_lanes"`
}

// Stats snapshots the budget's counters.
func (b *Budget) Stats() Stats {
	if b == nil {
		return Default().Stats()
	}
	return Stats{
		Capacity:       b.capacity,
		TokensGranted:  b.granted.Load(),
		TokensDenied:   b.denied.Load(),
		TokensInUse:    int64(b.capacity - len(b.tokens)),
		PoolTasks:      b.poolTasks.Load(),
		PeakExtraLanes: b.peak.Load(),
	}
}

// Acquire takes up to want lanes from the budget without blocking and
// returns the grant. The grant always provides at least one lane (the
// caller's own goroutine) even when the budget is exhausted, so a
// kernel can unconditionally Acquire → Run → Release. Release must be
// called exactly once.
func (b *Budget) Acquire(want int) *Grant {
	if b == nil {
		b = Default()
	}
	if want < 1 {
		want = 1
	}
	g := &Grant{b: b}
	for g.tokens < want {
		select {
		case <-b.tokens:
			g.tokens++
		default:
			b.denied.Add(int64(want - g.tokens))
			b.granted.Add(int64(g.tokens))
			return g
		}
	}
	b.granted.Add(int64(g.tokens))
	return g
}

// Grant is a set of lanes checked out from a Budget. It is not safe
// for concurrent use; one kernel invocation owns it.
type Grant struct {
	b      *Budget
	tokens int
	fn     func(lane int)
	wg     sync.WaitGroup
}

// Lanes returns how many lanes Run will use: the held tokens, floored
// at one for the caller's own goroutine.
func (g *Grant) Lanes() int {
	if g == nil || g.tokens < 1 {
		return 1
	}
	return g.tokens
}

// Run executes fn(0), …, fn(lanes-1) and returns when all calls have
// finished; lanes is clamped to [1, Lanes()]. Lane 0 runs on the
// calling goroutine; the rest run on the budget's persistent pool. Run
// may be called any number of times on one grant (the per-iteration
// pattern of the force loop) but not concurrently with itself, and fn
// must not call Run or Acquire — lanes are leaves.
func (g *Grant) Run(lanes int, fn func(lane int)) {
	if max := g.Lanes(); lanes > max {
		lanes = max
	}
	if lanes <= 1 {
		fn(0)
		return
	}
	b := g.b
	b.poolOnce()
	g.fn = fn
	g.wg.Add(lanes - 1)
	for lane := 1; lane < lanes; lane++ {
		b.pool.tasks <- poolTask{g: g, lane: lane}
	}
	fn(0)
	g.wg.Wait()
	g.fn = nil
}

// Release returns the grant's lanes to the budget.
func (g *Grant) Release() {
	if g == nil || g.tokens == 0 {
		return
	}
	for i := 0; i < g.tokens; i++ {
		g.b.tokens <- struct{}{}
	}
	g.tokens = 0
}

// Close stops the budget's pool workers (if any were ever spawned).
// Safe to call multiple times; the budget must have no grants in
// flight. Long-lived processes keep their budget for the process
// lifetime and never need it — Close exists so tests and short-lived
// tools that construct many budgets can reclaim the goroutines.
func (b *Budget) Close() {
	if b == nil {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if b.pool != nil {
		close(b.pool.tasks)
		b.pool = nil
	}
}

// pool is the persistent worker set. Workers park on the task channel
// between rounds; a task is one lane of one Grant.Run round.
type pool struct {
	tasks chan poolTask
}

type poolTask struct {
	g    *Grant
	lane int
}

var poolMu sync.Mutex

// poolOnce spawns the budget's worker pool on first parallel use. The
// pool has capacity-1 workers: lane 0 of every round runs on the
// caller, so at most capacity-1 lanes ever queue at once.
func (b *Budget) poolOnce() {
	poolMu.Lock()
	defer poolMu.Unlock()
	if b.pool != nil {
		return
	}
	p := &pool{tasks: make(chan poolTask)}
	for i := 0; i < b.capacity-1; i++ {
		go p.worker(b)
	}
	b.pool = p
}

func (p *pool) worker(b *Budget) {
	for t := range p.tasks {
		n := b.active.Add(1)
		for {
			old := b.peak.Load()
			if n <= old || b.peak.CompareAndSwap(old, n) {
				break
			}
		}
		b.poolTasks.Add(1)
		t.g.fn(t.lane)
		b.active.Add(-1)
		t.g.wg.Done()
	}
}
