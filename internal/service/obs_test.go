package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// findSpan walks a span tree depth-first for the first node with the
// given name.
func findSpan(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := findSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// spanNames flattens a tree into the set of span names it contains.
func spanNames(n *obs.SpanNode, into map[string]bool) {
	if n == nil {
		return
	}
	into[n.Name] = true
	for _, c := range n.Children {
		spanNames(c, into)
	}
}

// TestLayoutTraceCoversPipeline: a real (unstubbed) qGDP-DP request with
// ?debug=trace returns a span tree covering every pipeline stage —
// queue wait, GP, legalization, the DP refinement passes, and the
// metrics scoring pass.
func TestLayoutTraceCoversPipeline(t *testing.T) {
	srv, _ := testServer(t)
	var body struct {
		TraceID string        `json:"trace_id"`
		Trace   *obs.SpanNode `json:"trace"`
	}
	resp := getJSON(t, srv.URL+"/v1/layout?topology=Grid&strategy=qGDP-DP&seed=1&debug=trace", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body.TraceID == "" || body.Trace == nil {
		t.Fatalf("debug=trace response missing trace: id=%q tree=%v", body.TraceID, body.Trace)
	}
	names := map[string]bool{}
	spanNames(body.Trace, names)
	for _, want := range []string{
		"/v1/layout", "queue.wait", "topology.build", "gplace.place",
		"qlegal.legalize", "reslegal.qgdp", "dplace.refine", "dplace.pass",
		"metrics.analyze", "store.put",
	} {
		if !names[want] {
			t.Errorf("trace missing stage %q (have %v)", want, names)
		}
	}

	// Without debug=trace the response stays trace-free.
	raw, err := http.Get(srv.URL + "/v1/layout?topology=Grid&strategy=qGDP-DP&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if bytes.Contains(b, []byte(`"trace"`)) {
		t.Error("plain response leaked a trace payload")
	}
}

// TestTracezListsRecordedTraces: finished request traces land in the
// ring and /tracez serves them, slowest-first by default, filterable by
// stage.
func TestTracezListsRecordedTraces(t *testing.T) {
	srv, e := testServer(t)
	resp := getJSON(t, srv.URL+"/v1/layout?topology=Grid&strategy=qGDP-LG&seed=7", nil)
	resp.Body.Close()
	if n := e.Recorder().Len(); n != 1 {
		t.Fatalf("recorder holds %d traces, want 1", n)
	}
	var list struct {
		Recorded int64 `json:"recorded"`
		Count    int   `json:"count"`
		Traces   []struct {
			ID    string  `json:"id"`
			Name  string  `json:"name"`
			DurMs float64 `json:"dur_ms"`
		} `json:"traces"`
	}
	resp = getJSON(t, srv.URL+"/tracez", &list)
	if resp.StatusCode != http.StatusOK || list.Count != 1 || len(list.Traces) != 1 {
		t.Fatalf("tracez: status %d %+v", resp.StatusCode, list)
	}
	if list.Traces[0].Name != "/v1/layout" || list.Traces[0].DurMs <= 0 {
		t.Errorf("trace summary = %+v", list.Traces[0])
	}

	// Stage filter: queue.wait matches, a bogus stage does not.
	resp = getJSON(t, srv.URL+"/tracez?stage=queue.wait", &list)
	resp.Body.Close()
	if list.Count != 1 {
		t.Errorf("stage=queue.wait matched %d traces, want 1", list.Count)
	}
	resp = getJSON(t, srv.URL+"/tracez?stage=no.such.stage", &list)
	resp.Body.Close()
	if list.Count != 0 {
		t.Errorf("bogus stage matched %d traces, want 0", list.Count)
	}

	// Single-trace lookup by ID round-trips the full tree.
	id := e.Recorder().List(true, "", 0, 1)[0].ID
	var full obs.TraceData
	resp = getJSON(t, srv.URL+"/tracez?id="+id, &full)
	if resp.StatusCode != http.StatusOK || full.ID != id || full.Root == nil {
		t.Errorf("tracez?id: status %d id=%q root=%v", resp.StatusCode, full.ID, full.Root)
	}
}

// TestForwardedTraceStitched: a cross-replica ?debug=trace request
// returns ONE span tree — the proxy's trace with the owner's remote
// half grafted under the cluster.forward hop span — and both replicas'
// rings record halves under the same trace ID.
func TestForwardedTraceStitched(t *testing.T) {
	reps := testReplicas(t, 3, "")
	owner, other := reps[1], reps[0]
	req := reqOwnedBy(t, other.cl, owner.addr)

	var body struct {
		TraceID string          `json:"trace_id"`
		Trace   *obs.SpanNode   `json:"trace"`
		Layout  json.RawMessage `json:"layout"`
	}
	resp := getJSON(t, layoutURL(other.srv.URL, req)+"&debug=trace", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body.Layout) == 0 {
		t.Error("stitched response lost the layout payload")
	}
	if body.TraceID == "" || body.Trace == nil {
		t.Fatalf("stitched response missing trace: id=%q", body.TraceID)
	}
	hop := findSpan(body.Trace, "cluster.forward")
	if hop == nil {
		t.Fatalf("no cluster.forward hop span in %+v", body.Trace)
	}
	remote := findSpan(hop, "/v1/layout")
	if remote == nil {
		t.Fatalf("remote half not grafted under the hop span: %+v", hop)
	}
	if findSpan(remote, "queue.wait") == nil {
		t.Errorf("remote half carries no queue.wait span: %+v", remote)
	}
	// The remote spans were rebased into the hop window, not left on
	// the remote clock.
	if remote.StartMs < hop.StartMs {
		t.Errorf("remote root starts at %.3fms, before the hop's %.3fms", remote.StartMs, hop.StartMs)
	}

	// Both rings recorded a half under the shared ID.
	if other.eng.Recorder().Get(body.TraceID) == nil {
		t.Error("proxy ring did not record the trace")
	}
	if owner.eng.Recorder().Get(body.TraceID) == nil {
		t.Error("owner ring did not record the remote half")
	}

	// One hop, counted on both ends: the proxy forwarded once, the
	// owner received once and did not forward onward.
	if s := other.cl.Stats(); s.Forwarded != 1 || s.ForwardReceived != 0 {
		t.Errorf("proxy stats: forwarded=%d received=%d, want 1/0", s.Forwarded, s.ForwardReceived)
	}
	if s := owner.cl.Stats(); s.ForwardReceived != 1 || s.Forwarded != 0 {
		t.Errorf("owner stats: received=%d forwarded=%d, want 1/0", s.ForwardReceived, s.Forwarded)
	}
	if got := owner.counts.legalizes.Load(); got != 1 {
		t.Errorf("owner legalized %d times, want 1", got)
	}
	if got := other.counts.legalizes.Load(); got != 0 {
		t.Errorf("proxy legalized %d times, want 0", got)
	}
}

// TestJobFanoutTraceStitched: a ring-partitioned job yields one trace —
// local items as job.item spans, each remote group as a jobs.forward
// span with the owning replica's job tree grafted underneath.
func TestJobFanoutTraceStitched(t *testing.T) {
	reps := testReplicas(t, 3, "")
	entry := reps[0]

	var specs []map[string]any
	for _, rep := range reps {
		req := reqOwnedBy(t, entry.cl, rep.addr)
		specs = append(specs, map[string]any{"topology": "Grid", "seed": req.Config.GP.Seed})
	}
	payload, err := json.Marshal(map[string]any{"requests": specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(entry.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if view.TraceID == "" {
		t.Error("submitted job has no trace ID")
	}

	final := waitJobDone(t, func() (JobView, bool) { return entry.eng.Jobs().Get(view.ID) })
	if final.Done != 3 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	if final.Trace == nil {
		t.Fatal("finished job view has no trace tree")
	}
	if findSpan(final.Trace, "job.item") == nil {
		t.Errorf("no local job.item span in %+v", final.Trace)
	}
	fw := findSpan(final.Trace, "jobs.forward")
	if fw == nil {
		t.Fatalf("no jobs.forward span in %+v", final.Trace)
	}
	remote := findSpan(fw, "job")
	if remote == nil {
		t.Fatalf("remote job tree not grafted under jobs.forward: %+v", fw)
	}
	if findSpan(remote, "job.item") == nil {
		t.Errorf("remote job tree carries no job.item: %+v", remote)
	}

	// The parent job's ring entry shares the ID with each sub-job's on
	// its owning replica.
	if entry.eng.Recorder().Get(final.TraceID) == nil {
		t.Error("entry ring did not record the job trace")
	}
	remoteRecorded := 0
	for _, rep := range reps[1:] {
		if rep.eng.Recorder().Get(final.TraceID) != nil {
			remoteRecorded++
		}
	}
	if remoteRecorded != 2 {
		t.Errorf("remote halves recorded on %d replicas, want 2", remoteRecorded)
	}

	// Per-item forward accounting reconciles: forwards counted by the
	// entry equal forwards received across the owners.
	sent := entry.cl.Stats().Forwarded
	var received int64
	for _, rep := range reps {
		received += rep.cl.Stats().ForwardReceived
	}
	if sent != 2 || received != sent {
		t.Errorf("forwarded=%d received=%d, want 2 each", sent, received)
	}
}

// TestClusterHopGuardWithTraceHeader: a forwarded request carrying a
// trace reference is still served locally (one hop max) and its trace
// adopts the given ID rather than minting a new one.
func TestClusterHopGuardWithTraceHeader(t *testing.T) {
	reps := testReplicas(t, 3, "")
	owner, other := reps[1], reps[0]
	req := reqOwnedBy(t, other.cl, owner.addr)

	hr, err := http.NewRequest(http.MethodGet, layoutURL(other.srv.URL, req), nil)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(cluster.ForwardHeader, "someone")
	hr.Header.Set(cluster.TraceHeader, "tdeadbeef;cluster.forward")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := other.counts.legalizes.Load(); got != 1 {
		t.Errorf("hop-guarded request computed on %d replicas, want locally (1)", got)
	}
	if s := other.cl.Stats(); s.Forwarded != 0 {
		t.Errorf("hop-guarded request re-forwarded %d times", s.Forwarded)
	}
	if other.eng.Recorder().Get("tdeadbeef") == nil {
		t.Error("hop-guarded request did not adopt the forwarded trace ID")
	}
}

// TestMetricszExposition: /metricsz serves well-formed Prometheus text
// covering the obs registry and the engine-derived series.
func TestMetricszExposition(t *testing.T) {
	srv, _ := testServer(t)
	resp := getJSON(t, srv.URL+"/v1/layout?topology=Grid&strategy=qGDP-LG&seed=3", nil)
	resp.Body.Close()

	raw, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("status %d", raw.StatusCode)
	}
	if ct := raw.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	text := string(body)
	for _, want := range []string{
		"# TYPE qgdp_stage_seconds histogram",
		"# TYPE qgdp_kernel_seconds histogram",
		"qgdp_engine_requests_total 1",
		"qgdp_engine_in_flight 0",
		`qgdp_stage_seconds_bucket{stage="queue.wait",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}

	// Every line is a comment or a valid sample line.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestStatszStableKeyOrder: two /statsz scrapes render their JSON keys
// in the same order — dashboards diffing scrapes see value changes
// only, never map-ordering churn.
func TestStatszStableKeyOrder(t *testing.T) {
	srv, _ := testServer(t)
	keys := func() []string {
		raw, err := http.Get(srv.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(raw.Body)
		raw.Body.Close()
		return regexp.MustCompile(`"[a-zA-Z0-9_.:-]+"\s*:`).FindAllString(string(body), -1)
	}
	first := keys()
	// Change some counters between scrapes, then compare key sequences.
	resp := getJSON(t, srv.URL+"/v1/layout?topology=Grid&strategy=qGDP-LG&seed=11", nil)
	resp.Body.Close()
	second := keys()
	if len(first) == 0 {
		t.Fatal("statsz rendered no keys")
	}
	if strings.Join(first, ",") != strings.Join(second, ",") {
		t.Errorf("statsz key order churned:\n  %v\nvs\n  %v", first, second)
	}
}

// TestHealthzDegradedOnDiskFailure: when the disk tier starts failing
// writes, /healthz flips to 503 "degraded" (readiness) while the
// process keeps serving (liveness: the endpoint still answers, layouts
// still compute).
func TestHealthzDegradedOnDiskFailure(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := stubEngine(Options{Workers: 1, Store: store.NewTiered(store.NewMemory(8), disk)})
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	var health struct {
		Status string `json:"status"`
	}
	resp := getJSON(t, srv.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("fresh healthz: status %d %+v", resp.StatusCode, health)
	}

	// Yank the directory out from under the disk tier; the next spill
	// fails and flips the readiness bit.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Layout(context.Background(), layoutReq("Grid", core.QGDPLG)); err != nil {
		t.Fatalf("layout should survive a failing disk tier: %v", err)
	}

	raw, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(raw.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" {
		t.Errorf("degraded healthz: status %d %+v", raw.StatusCode, health)
	}
}

// TestSlowRequestLog: requests over the threshold emit one structured
// JSON line naming the trace and its slowest spans.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	e := New(Options{Workers: 1, SlowRequestThreshold: 1, SlowLogWriter: &buf}) // 1ns: everything is slow
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp := getJSON(t, srv.URL+"/v1/layout?topology=Grid&strategy=qGDP-LG&seed=5", nil)
	resp.Body.Close()

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-request line logged")
	}
	var entry struct {
		Msg      string  `json:"msg"`
		Path     string  `json:"path"`
		DurMs    float64 `json:"dur_ms"`
		TraceID  string  `json:"trace_id"`
		TopSpans []struct {
			Name  string  `json:"name"`
			DurMs float64 `json:"dur_ms"`
		} `json:"top_spans"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v (%q)", err, line)
	}
	if entry.Msg != "slow request" || entry.Path != "/v1/layout" || entry.TraceID == "" {
		t.Errorf("slow log entry = %+v", entry)
	}
	if len(entry.TopSpans) == 0 {
		t.Errorf("slow log entry has no top spans: %q", line)
	}
}
