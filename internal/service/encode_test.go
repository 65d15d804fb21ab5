package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/layoutio"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/topology"
)

// oracleLayoutResponse is the /v1/layout body as the handler built it
// before the report was stored with the layout: the layout serialized
// by layoutio.WriteJSON into a json.RawMessage.
type oracleLayoutResponse struct {
	Topology    string          `json:"topology"`
	Strategy    core.Strategy   `json:"strategy"`
	Seed        int64           `json:"seed"`
	CacheHit    bool            `json:"cache_hit"`
	Shared      bool            `json:"shared"`
	Report      metrics.Report  `json:"report"`
	QubitMs     float64         `json:"tq_ms"`
	ResonatorMs float64         `json:"te_ms"`
	DPMs        float64         `json:"dp_ms"`
	Layout      json.RawMessage `json:"layout"`
	TraceID     string          `json:"trace_id,omitempty"`
	Trace       *obs.SpanNode   `json:"trace,omitempty"`
}

// oracleDeltaResponse is the same for /v1/layout/delta.
type oracleDeltaResponse struct {
	Topology    string          `json:"topology"`
	Strategy    core.Strategy   `json:"strategy"`
	Seed        int64           `json:"seed"`
	CacheHit    bool            `json:"cache_hit"`
	Shared      bool            `json:"shared"`
	Path        string          `json:"delta_path,omitempty"`
	Report      metrics.Report  `json:"report"`
	QubitMs     float64         `json:"tq_ms"`
	ResonatorMs float64         `json:"te_ms"`
	DPMs        float64         `json:"dp_ms"`
	Layout      json.RawMessage `json:"layout"`
	TraceID     string          `json:"trace_id,omitempty"`
	Trace       *obs.SpanNode   `json:"trace,omitempty"`
}

// twoPassBody is the old two-pass construction: the layout written by
// layoutio.WriteJSON into a buffer, carried as a json.RawMessage (which
// the marshal compacts), and the whole response re-indented.
func twoPassBody(t *testing.T, lay *core.Layout, wrap func(report metrics.Report, layout json.RawMessage) any, cfg core.Config) []byte {
	t.Helper()
	var nb bytes.Buffer
	if err := layoutio.WriteJSON(&nb, lay.Netlist); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(wrap(core.Analyze(lay.Netlist, cfg), json.RawMessage(nb.Bytes()))); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serve runs one request through the full handler stack in process.
func serve(h http.Handler, method, url, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec
}

// TestLayoutBodyMatchesTwoPassOracle: for every topology × strategy,
// on the computing miss and on the memory hit, the single-pass
// /v1/layout body is byte-identical to the old two-pass construction
// fed the same layout — including the report, which the oracle
// recomputes with core.Analyze instead of reading the stored one.
func TestLayoutBodyMatchesTwoPassOracle(t *testing.T) {
	topos := []string{"Grid", "Xtree", "Falcon", "Eagle", "Aspen-11", "Aspen-M"}
	if testing.Short() {
		topos = []string{"Grid", "Falcon"}
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	h := NewHandler(e)
	for _, topo := range topos {
		for _, s := range append(core.Strategies(), core.QGDPDP) {
			req := LayoutRequest{Topology: topo, Strategy: s, Config: core.DefaultConfig()}
			url := fmt.Sprintf("/v1/layout?topology=%s&strategy=%s", topo, s)
			for _, hit := range []bool{false, true} {
				rec := serve(h, http.MethodGet, url, "")
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.Bytes())
				}
				lay, ok := e.layStore.Peek(layoutKey(req))
				if !ok {
					t.Fatalf("%s: layout not stored", url)
				}
				want := twoPassBody(t, lay, func(rep metrics.Report, raw json.RawMessage) any {
					return oracleLayoutResponse{
						Topology: topo, Strategy: s, Seed: req.Config.GP.Seed, CacheHit: hit,
						Report: rep, QubitMs: ms(lay.QubitTime), ResonatorMs: ms(lay.ResonatorTime),
						DPMs: ms(lay.DPTime), Layout: raw,
					}
				}, req.Config)
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%s/%s hit=%v: body differs from the two-pass oracle (%d vs %d bytes)",
						topo, s, hit, rec.Body.Len(), len(want))
				}
			}
		}
	}
}

// TestDeltaBodyMatchesTwoPassOracle: the same byte identity for
// /v1/layout/delta, on the repairing miss and on the hit.
func TestDeltaBodyMatchesTwoPassOracle(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	h := NewHandler(e)
	for _, s := range []core.Strategy{core.QGDPLG, core.QGDPDP} {
		if rec := serve(h, http.MethodGet, "/v1/layout?topology=Grid&strategy="+string(s), ""); rec.Code != http.StatusOK {
			t.Fatalf("base %s: status %d", s, rec.Code)
		}
		body := fmt.Sprintf(`{"topology":"Grid","strategy":%q,"edits":[{"op":"disable_qubit","qubit":0}]}`, s)
		req := LayoutRequest{Topology: "Grid", Strategy: s, Config: core.DefaultConfig()}
		dev, _ := topology.ByName("Grid")
		edits, err := topology.Canonicalize(dev, []topology.Edit{{Op: topology.EditDisableQubit, Qubit: 0}})
		if err != nil {
			t.Fatal(err)
		}
		dkey := deltaKey(layoutKey(req), edits)
		for _, hit := range []bool{false, true} {
			rec := serve(h, http.MethodPost, "/v1/layout/delta", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("delta %s: status %d: %s", s, rec.Code, rec.Body.Bytes())
			}
			lay, ok := e.layStore.Peek(dkey)
			if !ok {
				t.Fatalf("delta %s: result not stored", s)
			}
			path := ""
			if !hit {
				path = DeltaPathFast
			}
			want := twoPassBody(t, lay, func(rep metrics.Report, raw json.RawMessage) any {
				return oracleDeltaResponse{
					Topology: "Grid", Strategy: s, Seed: req.Config.GP.Seed, CacheHit: hit, Path: path,
					Report: rep, QubitMs: ms(lay.QubitTime), ResonatorMs: ms(lay.ResonatorTime),
					DPMs: ms(lay.DPTime), Layout: raw,
				}
			}, req.Config)
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("delta %s hit=%v: body differs from the two-pass oracle", s, hit)
			}
		}
	}
}

// checkServedReport decodes a /v1/layout hit and checks that its report
// is what core.Analyze computes on the served netlist.
func checkServedReport(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.Bytes())
	}
	var body struct {
		CacheHit bool            `json:"cache_hit"`
		Report   metrics.Report  `json:"report"`
		Layout   json.RawMessage `json:"layout"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !body.CacheHit {
		t.Errorf("%s: cache_hit false, want a store hit", what)
	}
	n, err := layoutio.ReadJSON(bytes.NewReader(body.Layout))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(body.Report, core.Analyze(n, core.DefaultConfig())) {
		t.Errorf("%s: stored report %+v differs from core.Analyze on the served netlist", what, body.Report)
	}
}

// TestStoredReportOnEveryTier: the report stored with a layout equals
// core.Analyze on the served netlist whichever way the layout reached
// the serving store — a memory hit, a disk-tier restart, or a
// /v1/replicate receive — and none of those hits recomputes placement.
func TestStoredReportOnEveryTier(t *testing.T) {
	const url = "/v1/layout?topology=Falcon&strategy=qGDP-DP"
	dir := t.TempDir()
	open := func() *Engine {
		disk, err := store.OpenDisk(dir, store.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return New(Options{Workers: 2, Store: store.NewTiered(store.NewMemory(8), disk)})
	}

	e := open()
	h := NewHandler(e)
	if rec := serve(h, http.MethodGet, url, ""); rec.Code != http.StatusOK {
		t.Fatalf("miss: status %d", rec.Code)
	}
	checkServedReport(t, "memory hit", serve(h, http.MethodGet, url, ""))
	key := layoutKey(LayoutRequest{Topology: "Falcon", Strategy: core.QGDPDP, Config: core.DefaultConfig()})
	lay, _ := e.layStore.Peek(key)
	envelope, err := store.EncodeEnvelope(key, lay)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	e = open()
	checkServedReport(t, "disk-tier restart", serve(NewHandler(e), http.MethodGet, url, ""))
	if s := e.Stats(); s.Computed != 0 || s.Store.DiskHits != 1 {
		t.Errorf("restart: computed %d, disk hits %d; want 0 and 1", s.Computed, s.Store.DiskHits)
	}
	e.Close()

	// A one-member cluster owns every key, so the replicated envelope
	// is served locally.
	cl, err := cluster.New(cluster.Config{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	e = New(Options{Workers: 2, Cluster: cl})
	defer e.Close()
	h = NewHandler(e)
	if rec := serve(h, http.MethodPost, "/v1/replicate", string(envelope)); rec.Code != http.StatusNoContent {
		t.Fatalf("replicate: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	checkServedReport(t, "replicate receive", serve(h, http.MethodGet, url, ""))
	if s := e.Stats(); s.Computed != 0 {
		t.Errorf("replicate: computed %d, want 0", s.Computed)
	}
}

// TestEncodeSpanRecorded: both layout handlers time their response
// encoding as a service.encode span in the recorded trace.
func TestEncodeSpanRecorded(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	h := NewHandler(e)
	serve(h, http.MethodGet, "/v1/layout?topology=Grid&strategy=qGDP-LG", "")
	serve(h, http.MethodPost, "/v1/layout/delta",
		`{"topology":"Grid","strategy":"qGDP-LG","edits":[{"op":"disable_qubit","qubit":1}]}`)
	for _, name := range []string{"/v1/layout", "/v1/layout/delta"} {
		found := false
		for _, s := range e.Recorder().List(true, "service.encode", 0, 10) {
			found = found || s.Name == name
		}
		if !found {
			t.Errorf("no recorded %s trace has a service.encode span", name)
		}
	}
}
