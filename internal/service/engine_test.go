package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/topology"
)

// stubEngine replaces the pipeline stages with cheap counted fakes so
// cache/flight/pool behavior is observable without running placement.
type stubCounts struct {
	prepares, legalizes, fidelities atomic.Int64
}

func stubEngine(opts Options) (*Engine, *stubCounts) {
	e := New(opts)
	c := &stubCounts{}
	e.prepareFn = func(dev *topology.Device, _ core.Config) *netlist.Netlist {
		c.prepares.Add(1)
		return &netlist.Netlist{Name: dev.Name}
	}
	e.legalizeFn = func(_ context.Context, gp *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		c.legalizes.Add(1)
		return &core.Layout{Netlist: gp.Clone(), QubitTime: time.Microsecond, ResonatorTime: time.Microsecond}, nil
	}
	e.fidelityFn = func(_ context.Context, _ *netlist.Netlist, _ string, _ core.Config) (float64, error) {
		c.fidelities.Add(1)
		return 0.5, nil
	}
	return e, c
}

func layoutReq(topo string, s core.Strategy) LayoutRequest {
	return LayoutRequest{Topology: topo, Strategy: s, Config: core.DefaultConfig()}
}

func TestLayoutCacheHitAccounting(t *testing.T) {
	e, c := stubEngine(Options{Workers: 2})
	ctx := context.Background()
	req := layoutReq("Grid", core.QGDPLG)

	first, err := e.Layout(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Shared {
		t.Errorf("first request: CacheHit=%v Shared=%v, want cold compute", first.CacheHit, first.Shared)
	}
	second, err := e.Layout(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical request: want cache hit")
	}
	if second.Layout != first.Layout {
		t.Error("cache returned a different layout instance")
	}
	if got := c.legalizes.Load(); got != 1 {
		t.Errorf("legalize ran %d times, want 1", got)
	}
	if got := c.prepares.Load(); got != 1 {
		t.Errorf("GP ran %d times, want 1", got)
	}

	s := e.Stats()
	if s.LayoutHits != 1 || s.LayoutMisses != 1 {
		t.Errorf("stats: hits=%d misses=%d, want 1/1", s.LayoutHits, s.LayoutMisses)
	}
	if s.Requests != 2 {
		t.Errorf("stats: requests=%d, want 2", s.Requests)
	}
	if s.Computed != 2 { // one GP + one legalization
		t.Errorf("stats: computed=%d, want 2", s.Computed)
	}
	if s.InFlight != 0 {
		t.Errorf("stats: in_flight=%d after quiesce, want 0", s.InFlight)
	}
}

func TestGPSharedAcrossStrategies(t *testing.T) {
	e, c := stubEngine(Options{})
	ctx := context.Background()
	for _, s := range core.Strategies() {
		if _, err := e.Layout(ctx, layoutReq("Grid", s)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.prepares.Load(); got != 1 {
		t.Errorf("GP ran %d times for 5 strategies, want 1", got)
	}
	if got := c.legalizes.Load(); got != int64(len(core.Strategies())) {
		t.Errorf("legalize ran %d times, want %d", got, len(core.Strategies()))
	}
}

func TestSingleflightCollapse(t *testing.T) {
	e, c := stubEngine(Options{Workers: 8})
	// Make the computation slow enough that concurrent callers overlap.
	var inLegalize sync.WaitGroup
	inLegalize.Add(1)
	base := e.legalizeFn
	e.legalizeFn = func(ctx context.Context, gp *netlist.Netlist, s core.Strategy, cfg core.Config) (*core.Layout, error) {
		inLegalize.Done()
		time.Sleep(50 * time.Millisecond)
		return base(ctx, gp, s, cfg)
	}

	const n = 16
	ctx := context.Background()
	req := layoutReq("Falcon", core.QGDPLG)
	results := make([]LayoutResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Layout(ctx, req)
		}(i)
	}
	inLegalize.Wait() // leader is mid-compute while followers pile up
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := c.legalizes.Load(); got != 1 {
		t.Errorf("legalize ran %d times under %d concurrent identical requests, want 1", got, n)
	}
	var leaders, joined int
	for _, r := range results {
		switch {
		case r.CacheHit || r.Shared:
			joined++
		default:
			leaders++
		}
		if r.Layout != results[0].Layout {
			t.Error("requests resolved to different layout instances")
		}
	}
	if leaders != 1 || joined != n-1 {
		t.Errorf("leaders=%d joined=%d, want 1/%d", leaders, joined, n-1)
	}
	s := e.Stats()
	if s.LayoutHits+s.SharedFlights != n-1 {
		t.Errorf("stats: hits=%d shared=%d, want sum %d", s.LayoutHits, s.SharedFlights, n-1)
	}
}

func TestContextCancellationMidJob(t *testing.T) {
	e, _ := stubEngine(Options{Workers: 2})
	// The stage blocks until its context dies, simulating a long
	// legalization that honors cancellation.
	started := make(chan struct{}, 1)
	e.legalizeFn = func(ctx context.Context, _ *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Layout(ctx, layoutReq("Grid", core.QGDPLG))
		done <- err
	}()
	select {
	case <-started: // the job is inside the blocking stage
	case <-time.After(5 * time.Second):
		t.Fatal("job never reached the legalize stage")
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job did not return")
	}

	// The failed computation must not be cached: a fresh request
	// computes again (and succeeds with a live stage).
	e.legalizeFn = func(_ context.Context, gp *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		return &core.Layout{Netlist: gp.Clone()}, nil
	}
	res, err := e.Layout(context.Background(), layoutReq("Grid", core.QGDPLG))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("cancelled computation was cached")
	}
}

// TestLeaderCancellationDoesNotPoisonFollowers: when the flight leader's
// client disconnects mid-compute, a follower with a live context must
// retry and lead its own flight instead of surfacing the leader's
// context.Canceled.
func TestLeaderCancellationDoesNotPoisonFollowers(t *testing.T) {
	e, _ := stubEngine(Options{Workers: 4})
	var calls atomic.Int64
	leaderIn := make(chan struct{}, 1)
	e.legalizeFn = func(ctx context.Context, gp *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		if calls.Add(1) == 1 {
			leaderIn <- struct{}{}
			<-ctx.Done() // first computation dies with its requester
			return nil, ctx.Err()
		}
		return &core.Layout{Netlist: gp.Clone()}, nil
	}

	req := layoutReq("Falcon", core.QGDPLG)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Layout(leaderCtx, req)
		leaderDone <- err
	}()
	<-leaderIn

	followerDone := make(chan error, 1)
	go func() {
		_, err := e.Layout(context.Background(), req)
		followerDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	cancelLeader()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	select {
	case err := <-followerDone:
		if err != nil {
			t.Errorf("follower inherited the leader's cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed after leader cancellation")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("legalize ran %d times, want 2 (cancelled leader + follower retry)", got)
	}
}

func TestFollowerCancellationLeavesLeaderRunning(t *testing.T) {
	e, _ := stubEngine(Options{Workers: 4})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	e.legalizeFn = func(_ context.Context, gp *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		started <- struct{}{}
		<-release
		return &core.Layout{Netlist: gp.Clone()}, nil
	}

	req := layoutReq("Eagle", core.QGDPLG)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Layout(context.Background(), req)
		leaderDone <- err
	}()
	<-started

	followerCtx, cancelFollower := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := e.Layout(followerCtx, req)
		followerDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancelFollower()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader failed after follower cancellation: %v", err)
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	const workers = 2
	e, _ := stubEngine(Options{Workers: workers})
	var cur, peak atomic.Int64
	e.legalizeFn = func(_ context.Context, gp *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		cur.Add(-1)
		return &core.Layout{Netlist: gp.Clone()}, nil
	}

	var wg sync.WaitGroup
	for _, topo := range []string{"Grid", "Xtree", "Falcon", "Eagle", "Aspen-11", "Aspen-M"} {
		for _, s := range core.Strategies() {
			wg.Add(1)
			go func(topo string, s core.Strategy) {
				defer wg.Done()
				if _, err := e.Layout(context.Background(), layoutReq(topo, s)); err != nil {
					t.Error(err)
				}
			}(topo, s)
		}
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds pool size %d", p, workers)
	}
}

func TestLRUEviction(t *testing.T) {
	e, c := stubEngine(Options{CacheSize: 1})
	ctx := context.Background()
	a := layoutReq("Grid", core.QGDPLG)
	b := layoutReq("Falcon", core.QGDPLG)

	for _, req := range []LayoutRequest{a, b, a} { // b evicts a, a recomputes
		if _, err := e.Layout(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.legalizes.Load(); got != 3 {
		t.Errorf("legalize ran %d times with capacity-1 cache, want 3", got)
	}
}

func TestFidelityCaching(t *testing.T) {
	e, c := stubEngine(Options{})
	ctx := context.Background()
	req := FidelityRequest{LayoutRequest: layoutReq("Grid", core.QGDPLG), Benchmark: "bv-4"}

	if _, err := e.Fidelity(ctx, req); err != nil {
		t.Fatal(err)
	}
	res, err := e.Fidelity(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("second identical fidelity request: want cache hit")
	}
	if got := c.fidelities.Load(); got != 1 {
		t.Errorf("fidelity ran %d times, want 1", got)
	}
	// The layout behind it was computed once, too.
	if got := c.legalizes.Load(); got != 1 {
		t.Errorf("legalize ran %d times, want 1", got)
	}

	// A different benchmark reuses the cached layout.
	req2 := req
	req2.Benchmark = "bv-9"
	if _, err := e.Fidelity(ctx, req2); err != nil {
		t.Fatal(err)
	}
	if got := c.legalizes.Load(); got != 1 {
		t.Errorf("legalize recomputed for a second benchmark: %d runs", got)
	}
}

// TestFidelitySingleWorkerNoDeadlock guards the nested layout-inside-
// fidelity path: with one worker slot, the fidelity job must not try to
// take a second slot for its layout stage.
func TestFidelitySingleWorkerNoDeadlock(t *testing.T) {
	e, _ := stubEngine(Options{Workers: 1})
	done := make(chan error, 1)
	go func() {
		_, err := e.Fidelity(context.Background(), FidelityRequest{
			LayoutRequest: layoutReq("Grid", core.QGDPLG), Benchmark: "bv-4",
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("single-worker fidelity request deadlocked")
	}
}

func TestCancelWhileQueued(t *testing.T) {
	// A bounded queue turns on admission, which counts the tenant-tagged
	// request below while it waits for the slot.
	e, _ := stubEngine(Options{Workers: 1, MaxQueue: 1})
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	e.legalizeFn = func(_ context.Context, gp *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		started <- struct{}{}
		<-block
		return &core.Layout{Netlist: gp.Clone()}, nil
	}
	go e.Layout(context.Background(), layoutReq("Grid", core.QGDPLG))
	<-started // the only worker slot is now held

	ctx, cancel := context.WithCancel(withTenant(context.Background(), "acme"))
	queued := make(chan error, 1)
	go func() {
		_, err := e.Layout(ctx, layoutReq("Falcon", core.QGDPLG))
		queued <- err
	}()
	waitFor(t, "the second request to queue", func() bool {
		return e.Stats().Admission.Queued == 1
	})
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued request err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request ignored cancellation")
	}
	close(block)
}

// TestEngineMatchesCore runs the real pipeline through the engine and
// serially through core, asserting identical placements — concurrency
// and caching must not change results.
func TestEngineMatchesCore(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	cfg := core.DefaultConfig()
	cfg.Mappings = 2
	dev := topology.Grid25()

	e := New(Options{})
	got, err := e.Layout(context.Background(), LayoutRequest{
		Topology: dev.Name, Strategy: core.QGDPLG, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}

	gp := core.Prepare(topology.Grid25(), cfg)
	want, err := core.Legalize(gp, core.QGDPLG, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Layout.Netlist.Qubits) != len(want.Netlist.Qubits) {
		t.Fatalf("qubit count mismatch: %d vs %d", len(got.Layout.Netlist.Qubits), len(want.Netlist.Qubits))
	}
	for i := range want.Netlist.Qubits {
		g, w := got.Layout.Netlist.Qubits[i].Pos, want.Netlist.Qubits[i].Pos
		if g != w {
			t.Fatalf("qubit %d position %v differs from serial core result %v", i, g, w)
		}
	}
	for i := range want.Netlist.Blocks {
		g, w := got.Layout.Netlist.Blocks[i].Pos, want.Netlist.Blocks[i].Pos
		if g != w {
			t.Fatalf("block %d position %v differs from serial core result %v", i, g, w)
		}
	}

	gf, err := e.Fidelity(context.Background(), FidelityRequest{
		LayoutRequest: LayoutRequest{Topology: dev.Name, Strategy: core.QGDPLG, Config: cfg},
		Benchmark:     "bv-4",
	})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := core.AverageFidelity(want.Netlist, "bv-4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gf.Fidelity != wf {
		t.Errorf("fidelity %v differs from serial core result %v", gf.Fidelity, wf)
	}
}

func TestKeyStability(t *testing.T) {
	cfg := core.DefaultConfig()
	a := layoutKey(LayoutRequest{Topology: "Grid", Strategy: core.QGDPLG, Config: cfg})
	b := layoutKey(LayoutRequest{Topology: "Grid", Strategy: core.QGDPLG, Config: cfg})
	if a != b {
		t.Error("identical requests hash differently")
	}
	cfg2 := cfg
	cfg2.GP.Seed++
	if layoutKey(LayoutRequest{Topology: "Grid", Strategy: core.QGDPLG, Config: cfg2}) == a {
		t.Error("seed change did not change the key")
	}
	if layoutKey(LayoutRequest{Topology: "Grid", Strategy: core.TetrisS, Config: cfg}) == a {
		t.Error("strategy change did not change the key")
	}
	// GP keys ignore the strategy so all strategies share one GP run.
	if gpKey("Grid", cfg) != gpKey("Grid", cfg) {
		t.Error("gp key unstable")
	}
	if gpKey("Grid", cfg) == gpKey("Falcon", cfg) {
		t.Error("gp key ignores topology")
	}
}
