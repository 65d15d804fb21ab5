package service

// The incremental delta engine: POST /v1/layout/delta takes a base
// layout request plus a canonical edit list (disable a qubit, disable a
// coupler, retune a frequency, resize the substrate) and produces the
// edited layout by REPAIRING the cached base instead of re-running the
// cold pipeline (core.Repair). The result is a full, first-class
// envelope: it lands in the store under the delta key, replicates to
// the delta key's ring owners, and later identical delta requests hit
// it like any layout.
//
// Key discipline: the delta request routes and caches by the DELTA key
// (hash of base key + canonical edits, under the "layout:" prefix so
// every replication/anti-entropy filter already applies), but the base
// envelope is fetched by the BASE key from wherever it lives — the
// local store first, then the base key's ring owners via GET
// /v1/envelope. When no base is reachable anywhere the engine falls
// back to the cold path (core.PrepareEdited + full legalization),
// which is slower but always correct; kernstats.DeltaColdFallbacks
// counts it.
//
// Partial repairs never land: the request context is re-checked after
// the repair and before the store Put, exactly like the cold layout
// path, so a cancellation or blown deadline mid-repair surfaces the
// context error and leaves every store tier untouched.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernstats"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/topology"
)

// Delta path labels reported in DeltaResult.Path and the HTTP response.
const (
	// DeltaPathFast is the dirty-region repair: regional resonator
	// re-legalization plus (QGDPDP) region-restricted detailed placement.
	DeltaPathFast = "fast"
	// DeltaPathWarm is the warm-start path (substrate resize): reduced
	// force-loop iterations from the base positions, then the full
	// legalization chain.
	DeltaPathWarm = "warm"
	// DeltaPathCold is the correctness fallback: no base envelope was
	// reachable (or the fast path's safety valve tripped), so the edited
	// device ran the cold pipeline.
	DeltaPathCold = "cold"
)

// DeltaRequest identifies one incremental layout: the base layout
// request plus the edit list, in the BASE device's numbering. The edit
// list is canonicalized (validated, normalized, sorted) before hashing,
// so equivalent edit lists share one cache entry.
type DeltaRequest struct {
	LayoutRequest
	Edits []topology.Edit `json:"edits"`
}

// DeltaResult is a computed or cached incremental layout.
type DeltaResult struct {
	Layout *core.Layout
	// CacheHit reports the delta result came straight from the store;
	// Shared reports the request joined another request's in-flight
	// repair. At most one is true.
	CacheHit bool
	Shared   bool
	// Path reports which pipeline produced the layout (fast/warm/cold);
	// empty on a cache hit.
	Path string
}

// deltaKey hashes (base layout key, canonical edits) under the
// "layout:" prefix: the struct shape differs from layoutKey's, so the
// keyspaces cannot collide, while every store/replication filter that
// matches "layout:" applies to delta results unchanged.
func deltaKey(baseKey string, edits []topology.Edit) string {
	return keyOf("layout", struct {
		Base  string
		Edits []topology.Edit
	}{baseKey, edits})
}

// deltaOutcome is the flight-closure result: the layout plus which
// path produced it (followers coalesced into the flight inherit the
// leader's path).
type deltaOutcome struct {
	lay  *core.Layout
	path string
}

// LayoutDelta returns the layout for (base ⊕ edits), repairing the
// cached base envelope when one is reachable and falling back to the
// cold pipeline when not. Identical concurrent delta requests coalesce
// into one repair.
func (e *Engine) LayoutDelta(ctx context.Context, req DeltaRequest) (DeltaResult, error) {
	dev := req.Device
	if dev == nil {
		var err error
		if dev, err = topology.ByName(req.Topology); err != nil {
			return DeltaResult{}, err
		}
	}
	edits, err := topology.Canonicalize(dev, req.Edits)
	if err != nil {
		return DeltaResult{}, fmt.Errorf("bad edit list: %w", err)
	}

	start := time.Now()
	e.stats.requests.Add(1)
	defer func() {
		e.stats.latencyNs.Add(time.Since(start).Nanoseconds())
		e.stats.latencyCount.Add(1)
	}()

	sp := obs.SpanFrom(ctx)
	baseKey := layoutKey(req.LayoutRequest)
	dkey := deltaKey(baseKey, edits)
	if lay, ok := e.storeGet(ctx, dkey, sp); ok {
		e.stats.layoutHits.Add(1)
		e.tenantAcct(ctx).CacheHit()
		sp.AttrBool("cache_hit", true)
		return DeltaResult{Layout: lay, CacheHit: true}, nil
	}

	qs := sp.Child("queue.wait")
	release, err := e.acquire(ctx)
	qs.End()
	if err != nil {
		return DeltaResult{}, err
	}
	defer release()

	if lay, ok := e.storePeek(ctx, dkey); ok {
		e.stats.layoutHits.Add(1)
		e.tenantAcct(ctx).CacheHit()
		sp.AttrBool("cache_hit", true)
		return DeltaResult{Layout: lay, CacheHit: true}, nil
	}
	e.stats.layoutMiss.Add(1)

	for {
		v, err, shared := e.layFlight.Do(ctx, dkey, func() (any, error) {
			return e.computeDelta(ctx, dev, req, edits, baseKey, dkey)
		})
		if retryShared(ctx, err, shared) {
			continue
		}
		if err != nil {
			return DeltaResult{}, err
		}
		if shared {
			e.stats.sharedFlights.Add(1)
			sp.AttrBool("shared", true)
		}
		out := v.(*deltaOutcome)
		return DeltaResult{Layout: out.lay, Shared: shared, Path: out.path}, nil
	}
}

// computeDelta is the delta flight body: resolve the base, repair (or
// cold-fall-back), and land the result like any computed layout. The
// caller holds a worker slot.
func (e *Engine) computeDelta(ctx context.Context, dev *topology.Device, req DeltaRequest, edits []topology.Edit, baseKey, dkey string) (*deltaOutcome, error) {
	sp := obs.SpanFrom(ctx)
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
	cfg.Obs = sp

	var (
		lay  *core.Layout
		path string
	)
	if base := e.deltaBase(ctx, baseKey, sp); base != nil {
		repaired, warm, err := core.Repair(base, req.Strategy, cfg, edits)
		switch {
		case err == nil:
			lay = repaired
			if warm {
				path = DeltaPathWarm
				kernstats.DeltaWarmStarts.Add(1)
			} else {
				path = DeltaPathFast
				kernstats.DeltaFastRepairs.Add(1)
			}
		case ctx.Err() != nil:
			// A cancellation or blown deadline mid-repair is the request
			// dying, not the safety valve tripping — surface it rather
			// than burning the remaining budget on a cold run.
			return nil, ctx.Err()
		default:
			// Safety valve (or a structurally un-repairable edit): the
			// cold path is always correct.
			sp.Attr("delta_fallback", err.Error())
		}
	}

	if lay == nil {
		path = DeltaPathCold
		kernstats.DeltaColdFallbacks.Add(1)
		n, err := core.PrepareEdited(dev, cfg, edits)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if lay, err = e.legalizeFn(ctx, n, req.Strategy, cfg); err != nil {
			return nil, err
		}
	}
	sp.Attr("delta_path", path)
	attachReport(lay, cfg)

	// Never land a repair the client abandoned: like the cold layout
	// path, the context is the last gate before any store tier sees the
	// result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.faults.Fire(ctx, faultinject.SiteStoreWrite) != nil {
		return &deltaOutcome{lay: lay, path: path}, nil
	}
	ps := sp.Child("store.put")
	e.layStore.Put(dkey, lay)
	ps.End()
	if e.rep != nil {
		e.rep.replicate(dkey, lay)
	}
	return &deltaOutcome{lay: lay, path: path}, nil
}

// deltaBase resolves the base envelope: the local store first, then the
// base key's ring owners over GET /v1/envelope. Returns nil when no
// copy is reachable — the caller cold-falls-back.
func (e *Engine) deltaBase(ctx context.Context, baseKey string, sp *obs.Span) *core.Layout {
	if base, ok := e.storePeek(ctx, baseKey); ok {
		kernstats.DeltaBaseLocal.Add(1)
		sp.Attr("delta_base", "local")
		return base
	}
	if base := e.fetchBaseRemote(ctx, baseKey); base != nil {
		kernstats.DeltaBaseRemote.Add(1)
		sp.Attr("delta_base", "remote")
		return base
	}
	return nil
}

// fetchBaseRemote asks the base key's other ring owners for the base
// envelope, first live owner wins. The fetched base is stored locally
// (read-repair: the next delta against the same base starts local).
// Transport failures feed the forward circuit breaker and the failure
// detector, like any request-path hop.
func (e *Engine) fetchBaseRemote(ctx context.Context, baseKey string) *core.Layout {
	cl := e.cluster
	if cl == nil {
		return nil
	}
	for _, owner := range cl.Ring().Owners(baseKey, cl.Replication()) {
		if owner == cl.Self() || !routableState(cl.PeerState(owner)) || !cl.AllowForward(owner) {
			continue
		}
		lay, err := fetchEnvelope(ctx, cl, owner, baseKey)
		if err == errEnvelopeMiss {
			// A clean 404 is a healthy peer without the key, not a
			// transport failure — do not feed the breaker.
			cl.MarkForwardSuccess(owner)
			continue
		}
		if err != nil {
			cl.MarkForwardFailure(owner, err)
			continue
		}
		cl.MarkForwardSuccess(owner)
		if e.faults.Fire(ctx, faultinject.SiteStoreWrite) == nil {
			e.layStore.Put(baseKey, lay)
		}
		return lay
	}
	return nil
}

// fetchEnvelope GETs one layout envelope from a peer's /v1/envelope,
// bounded by the cluster's ForwardTimeout on top of the caller's
// remaining deadline.
func fetchEnvelope(ctx context.Context, cl *cluster.Cluster, owner, key string) (*core.Layout, error) {
	if t := cl.ForwardTimeout(); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	u := "http://" + owner + "/v1/envelope?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, http.NoBody)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		// The owner simply does not hold the key — not a peer failure.
		return nil, errEnvelopeMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("envelope status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEnvelopeBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxEnvelopeBytes {
		return nil, fmt.Errorf("envelope too large")
	}
	gotKey, lay, err := store.DecodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	if gotKey != key {
		return nil, fmt.Errorf("envelope key mismatch: got %s", gotKey)
	}
	return lay, nil
}

var errEnvelopeMiss = fmt.Errorf("envelope not held")
