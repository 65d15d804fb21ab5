package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernstats"
	"repro/internal/netlist"
	"repro/internal/store"
	"repro/internal/topology"
)

// deltaReq builds a Grid delta request over a small-mappings config.
func deltaReq(t *testing.T, edits []topology.Edit) DeltaRequest {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Mappings = 2
	return DeltaRequest{
		LayoutRequest: LayoutRequest{Topology: "Grid", Strategy: core.QGDPLG, Config: cfg},
		Edits:         edits,
	}
}

func dropQ(q int) []topology.Edit {
	return []topology.Edit{{Op: topology.EditDisableQubit, Qubit: q}}
}

// canonicalDeltaKey computes the delta key the engine would use.
func canonicalDeltaKey(t *testing.T, req DeltaRequest) string {
	t.Helper()
	dev, err := topology.ByName(req.Topology)
	if err != nil {
		t.Fatal(err)
	}
	edits, err := topology.Canonicalize(dev, req.Edits)
	if err != nil {
		t.Fatal(err)
	}
	return deltaKey(layoutKey(req.LayoutRequest), edits)
}

// TestDeltaKeyStability: equivalent edit lists hash to one delta key;
// different edits, different base, and the base itself all hash apart —
// and every delta key stays inside the "layout:" keyspace the
// replication filters admit.
func TestDeltaKeyStability(t *testing.T) {
	dev := topology.Grid25()
	base := layoutKey(deltaReq(t, nil).LayoutRequest)
	a, err := topology.Canonicalize(dev, []topology.Edit{
		{Op: topology.EditDisableQubit, Qubit: 3},
		{Op: topology.EditRetune, Qubit: 7, Freq: 5.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.Canonicalize(dev, []topology.Edit{
		{Op: topology.EditRetune, Qubit: 7, Freq: 5.1},
		{Op: topology.EditDisableQubit, Qubit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if deltaKey(base, a) != deltaKey(base, b) {
		t.Error("equivalent edit lists hash to different delta keys")
	}
	if deltaKey(base, a) == deltaKey(base, a[:1]) {
		t.Error("different edit lists hash to one delta key")
	}
	if deltaKey(base, a) == deltaKey(base+"x", a) {
		t.Error("different bases hash to one delta key")
	}
	if deltaKey(base, a) == base {
		t.Error("delta key collides with its base key")
	}
	if !strings.HasPrefix(deltaKey(base, a), "layout:") {
		t.Errorf("delta key %q lacks the layout: prefix", deltaKey(base, a))
	}
}

// TestDeltaFastPath: with the base envelope in the local store, the
// delta request repairs it — no global placement runs, the fast-repair
// counter ticks, and the result is cached under the delta key.
func TestDeltaFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	req := deltaReq(t, dropQ(0))
	if _, err := e.Layout(ctx, req.LayoutRequest); err != nil {
		t.Fatal(err)
	}

	fastBefore := kernstats.DeltaFastRepairs.Load()
	localBefore := kernstats.DeltaBaseLocal.Load()
	placeBefore := kernstats.All()["gplace.place"].Calls

	res, err := e.LayoutDelta(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || res.Path != DeltaPathFast {
		t.Errorf("first delta: cache_hit=%v path=%q, want computed fast", res.CacheHit, res.Path)
	}
	if got := len(res.Layout.Netlist.Qubits); got != topology.Grid25().Qubits-1 {
		t.Errorf("repaired layout has %d qubits, want %d", got, topology.Grid25().Qubits-1)
	}
	if d := kernstats.DeltaFastRepairs.Load() - fastBefore; d != 1 {
		t.Errorf("delta.fast_repairs advanced by %d, want 1", d)
	}
	if d := kernstats.DeltaBaseLocal.Load() - localBefore; d != 1 {
		t.Errorf("delta.base_local advanced by %d, want 1", d)
	}
	// Zero full-pipeline recompute: the force-directed placer must not
	// have run for the repair.
	if d := kernstats.All()["gplace.place"].Calls - placeBefore; d != 0 {
		t.Errorf("gplace.place ran %d times during a fast repair, want 0", d)
	}

	second, err := e.LayoutDelta(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical delta: want cache hit")
	}
	if second.Layout != res.Layout {
		t.Error("delta cache returned a different layout instance")
	}
}

// TestDeltaColdFallback: with no base envelope reachable anywhere, the
// delta request still answers — through the cold pipeline, counted.
func TestDeltaColdFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	coldBefore := kernstats.DeltaColdFallbacks.Load()

	req := deltaReq(t, dropQ(0))
	res, err := e.LayoutDelta(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != DeltaPathCold {
		t.Errorf("path = %q, want cold (no base anywhere)", res.Path)
	}
	if got := len(res.Layout.Netlist.Qubits); got != topology.Grid25().Qubits-1 {
		t.Errorf("cold-fallback layout has %d qubits, want %d", got, topology.Grid25().Qubits-1)
	}
	if d := kernstats.DeltaColdFallbacks.Load() - coldBefore; d != 1 {
		t.Errorf("delta.cold_fallbacks advanced by %d, want 1", d)
	}
}

// TestDeltaInvalidEdits: a malformed edit list is rejected up front —
// no compute, no store writes.
func TestDeltaInvalidEdits(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	for _, edits := range [][]topology.Edit{
		nil,
		{{Op: "explode"}},
		{{Op: topology.EditDisableQubit, Qubit: 999}},
	} {
		if _, err := e.LayoutDelta(context.Background(), deltaReq(t, edits)); err == nil {
			t.Errorf("edits %+v accepted, want error", edits)
		}
	}
}

// TestDeltaCancellationNeverLands: a delta cancelled mid-compute
// surfaces the context error and leaves every store tier without the
// delta key — partial repairs must never land.
func TestDeltaCancellationNeverLands(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	started := make(chan struct{}, 1)
	e.legalizeFn = func(ctx context.Context, _ *netlist.Netlist, _ core.Strategy, _ core.Config) (*core.Layout, error) {
		started <- struct{}{}
		<-ctx.Done() // a long legalization that honors cancellation
		return nil, ctx.Err()
	}

	req := deltaReq(t, dropQ(0)) // no base: the cold path runs legalizeFn
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.LayoutDelta(ctx, req)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled delta did not return")
	}
	if storeHas(e.layStore, canonicalDeltaKey(t, req)) {
		t.Error("cancelled delta landed in the store")
	}
}

// TestDeltaHTTP: the POST endpoint end to end — seed the base over
// /v1/layout, post the delta, get the repaired layout with its path;
// malformed bodies are 400s.
func TestDeltaHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp := getJSON(t, srv.URL+"/v1/layout?topology=Grid&strategy=qGDP-LG&mappings=2", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base layout: status %d", resp.StatusCode)
	}

	body := `{"topology":"Grid","strategy":"qGDP-LG","mappings":2,"edits":[{"op":"disable_qubit","qubit":0}]}`
	post, err := http.Post(srv.URL+"/v1/layout/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dr deltaBody
	if err := json.NewDecoder(post.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d", post.StatusCode)
	}
	if dr.Path != DeltaPathFast || dr.CacheHit {
		t.Errorf("delta response path=%q cache_hit=%v, want fast compute", dr.Path, dr.CacheHit)
	}
	if len(dr.Layout) == 0 {
		t.Error("delta response carries no layout")
	}

	for name, bad := range map[string]string{
		"not json":      "{",
		"missing edits": `{"topology":"Grid"}`,
		"bad edit op":   `{"topology":"Grid","edits":[{"op":"explode"}]}`,
		"bad topology":  `{"topology":"Nope","edits":[{"op":"disable_qubit","qubit":0}]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/layout/delta", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestEnvelopeEndpoint: /v1/envelope serves locally held keys as
// versioned envelopes, 404s keys it does not hold, and rejects keys
// outside the layout keyspace.
func TestEnvelopeEndpoint(t *testing.T) {
	reps := testReplicas(t, 2, "")
	rep := reps[0]
	req := reqOwnedBy(t, rep.cl, rep.addr)
	resp := getJSON(t, layoutURL(rep.srv.URL, req), nil)
	resp.Body.Close()

	key := layoutKey(req)
	get := func(k string) (*http.Response, []byte) {
		r, err := http.Get(rep.srv.URL + "/v1/envelope?key=" + k)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		r.Body.Close()
		return r, buf.Bytes()
	}
	if r, _ := get("gp:deadbeef"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("non-layout key: status %d, want 400", r.StatusCode)
	}
	if r, _ := get("layout:deadbeef"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unheld key: status %d, want 404", r.StatusCode)
	}
	r, data := get(key)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("held key: status %d", r.StatusCode)
	}
	gotKey, lay, err := store.DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key || lay == nil {
		t.Errorf("envelope decodes to key %q, want %q", gotKey, key)
	}
}

// TestDeltaBaseRemoteFetch: a replica that does not hold the base
// envelope pulls it from the base key's owner over /v1/envelope, takes
// the fast path, and keeps the fetched base locally (read-repair).
func TestDeltaBaseRemoteFetch(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	// Two real-pipeline replicas, replication 1: the base envelope lives
	// only where it is computed.
	sh0, sh1 := &swapHandler{}, &swapHandler{}
	srv0, srv1 := httptest.NewServer(sh0), httptest.NewServer(sh1)
	defer srv0.Close()
	defer srv1.Close()
	addr0 := strings.TrimPrefix(srv0.URL, "http://")
	addr1 := strings.TrimPrefix(srv1.URL, "http://")
	addrs := []string{addr0, addr1}
	var engs [2]*Engine
	for i, addr := range addrs {
		cl, err := cluster.New(cluster.Config{Self: addr, Peers: addrs, Replication: 1})
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = New(Options{Workers: 2, Cluster: cl})
		defer engs[i].Close()
	}
	sh0.set(NewHandler(engs[0]))
	sh1.set(NewHandler(engs[1]))

	// A base request owned (and computed) on replica 0.
	var req DeltaRequest
	for seed := int64(0); ; seed++ {
		cfg := core.DefaultConfig()
		cfg.Mappings = 2
		cfg.GP.Seed = seed
		r := LayoutRequest{Topology: "Grid", Strategy: core.QGDPLG, Config: cfg}
		if addr, _ := engs[0].cluster.Route(layoutKey(r)); addr == addr0 {
			req = DeltaRequest{LayoutRequest: r, Edits: dropQ(0)}
			break
		}
		if seed > 100000 {
			t.Fatal("no seed routed to replica 0")
		}
	}
	if _, err := engs[0].Layout(context.Background(), req.LayoutRequest); err != nil {
		t.Fatal(err)
	}
	baseKey := layoutKey(req.LayoutRequest)
	if storeHas(engs[1].layStore, baseKey) {
		t.Fatal("replica 1 already holds the base — replication factor broke the setup")
	}

	remoteBefore := kernstats.DeltaBaseRemote.Load()
	res, err := engs[1].LayoutDelta(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != DeltaPathFast {
		t.Errorf("path = %q, want fast via remote base", res.Path)
	}
	if d := kernstats.DeltaBaseRemote.Load() - remoteBefore; d != 1 {
		t.Errorf("delta.base_remote advanced by %d, want 1", d)
	}
	if !storeHas(engs[1].layStore, baseKey) {
		t.Error("fetched base was not kept locally (read-repair)")
	}
}

// TestForwardReadRepair: after a replica forwards a layout request to
// its owner, it pulls the envelope back asynchronously so the next
// request for that key is served locally.
func TestForwardReadRepair(t *testing.T) {
	reps := testReplicas(t, 3, "")
	owner, other, third := reps[1], reps[0], reps[2]

	// A key owned by `owner` whose co-owner is NOT `other`: the only way
	// `other` can hold it is read-repair, not replication.
	var req LayoutRequest
	for seed := int64(0); ; seed++ {
		cfg := core.DefaultConfig()
		cfg.GP.Seed = seed
		r := LayoutRequest{Topology: "Grid", Strategy: core.QGDPLG, Config: cfg}
		o := other.cl.Ring().Owners(layoutKey(r), 2)
		if o[0] == owner.addr && o[1] == third.addr {
			req = r
			break
		}
		if seed > 100000 {
			t.Fatal("no suitable seed found")
		}
	}

	repairBefore := kernstats.ClusterReadRepair.Load()
	resp := getJSON(t, layoutURL(other.srv.URL, req), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}
	if s := other.cl.Stats(); s.Forwarded != 1 {
		t.Fatalf("forwarded = %d, want 1", s.Forwarded)
	}

	key := layoutKey(req)
	deadline := time.Now().Add(5 * time.Second)
	for !storeHas(other.eng.layStore, key) {
		if time.Now().After(deadline) {
			t.Fatal("forwarding replica never read-repaired the envelope")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if kernstats.ClusterReadRepair.Load() <= repairBefore {
		t.Error("cluster.read_repair did not advance")
	}
	// The repaired copy short-circuits the next request: no new forward.
	resp = getJSON(t, layoutURL(other.srv.URL, req), nil)
	resp.Body.Close()
	if s := other.cl.Stats(); s.Forwarded != 1 {
		t.Errorf("forwarded = %d after read-repair, want still 1", s.Forwarded)
	}
}

// TestRoutedDeltaForwarding: a delta POSTed to a replica that does not
// own the delta key is forwarded — body intact — and computed on the
// owner.
func TestRoutedDeltaForwarding(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	sh0, sh1 := &swapHandler{}, &swapHandler{}
	srv0, srv1 := httptest.NewServer(sh0), httptest.NewServer(sh1)
	defer srv0.Close()
	defer srv1.Close()
	addr0 := strings.TrimPrefix(srv0.URL, "http://")
	addr1 := strings.TrimPrefix(srv1.URL, "http://")
	addrs := []string{addr0, addr1}
	srvs := []*httptest.Server{srv0, srv1}
	var engs [2]*Engine
	for i, addr := range addrs {
		cl, err := cluster.New(cluster.Config{Self: addr, Peers: addrs, Replication: 1})
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = New(Options{Workers: 2, Cluster: cl})
		defer engs[i].Close()
	}
	sh0.set(NewHandler(engs[0]))
	sh1.set(NewHandler(engs[1]))

	// A delta whose key is owned by replica 1; POST it to replica 0.
	var req DeltaRequest
	var dkey string
	for seed := int64(0); ; seed++ {
		cfg := core.DefaultConfig()
		cfg.Mappings = 2
		cfg.GP.Seed = seed
		r := DeltaRequest{
			LayoutRequest: LayoutRequest{Topology: "Grid", Strategy: core.QGDPLG, Config: cfg},
			Edits:         dropQ(0),
		}
		k := canonicalDeltaKey(t, r)
		if addr, _ := engs[0].cluster.Route(k); addr == addr1 {
			req, dkey = r, k
			break
		}
		if seed > 100000 {
			t.Fatal("no seed routed the delta to replica 1")
		}
	}

	body := fmt.Sprintf(
		`{"topology":"Grid","strategy":"qGDP-LG","seed":%d,"mappings":2,"edits":[{"op":"disable_qubit","qubit":0}]}`,
		req.Config.GP.Seed)
	resp, err := http.Post(srvs[0].URL+"/v1/layout/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dr deltaBody
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed delta: status %d", resp.StatusCode)
	}
	if len(dr.Layout) == 0 {
		t.Error("routed delta carries no layout")
	}
	if s := engs[0].cluster.Stats(); s.Forwarded != 1 {
		t.Errorf("replica 0 forwarded %d requests, want 1", s.Forwarded)
	}
	// The result landed on the owner under the delta key.
	if !storeHas(engs[1].layStore, dkey) {
		t.Error("delta result not stored on the owning replica")
	}
}

// deltaBody is the part of a /v1/layout/delta response the tests read,
// with the layout kept as raw bytes.
type deltaBody struct {
	CacheHit bool            `json:"cache_hit"`
	Path     string          `json:"delta_path"`
	Layout   json.RawMessage `json:"layout"`
}
