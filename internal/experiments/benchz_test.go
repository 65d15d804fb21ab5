package experiments

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// TestBenchzHandlerServesLivePoint drives one layout through an engine
// and asserts /benchz emits a schema-correct trajectory point whose
// kernel counters reflect the work, without recomputing any tables.
func TestBenchzHandlerServesLivePoint(t *testing.T) {
	eng := service.New(service.Options{Workers: 2, CacheSize: 4})
	cfg := core.DefaultConfig()
	req := service.LayoutRequest{Topology: "Grid", Strategy: core.QGDPDP, Config: cfg}
	if _, err := eng.Layout(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	BenchzHandler(eng, 3).ServeHTTP(rec, httptest.NewRequest("GET", "/benchz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var p BenchPoint
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if p.Schema != "qgdp-bench-point-v1" {
		t.Fatalf("schema %q", p.Schema)
	}
	if p.PR != 3 {
		t.Fatalf("pr %d, want 3", p.PR)
	}
	if p.Table2 != nil || p.Table3 != nil {
		t.Fatal("live point must not carry recomputed tables")
	}
	if p.Engine.Requests < 1 {
		t.Fatalf("engine stats missing: %+v", p.Engine)
	}
	// The qGDP-DP layout above must have exercised the hot kernels.
	for _, k := range []string{"gplace.place", "maze.route", "dplace.refine"} {
		if p.Kernels[k].Calls < 1 {
			t.Fatalf("kernel %s has no calls in live point", k)
		}
	}
	if _, ok := p.Counters["dplace.serial_windows"]; !ok {
		t.Fatal("live point missing dplace window counter")
	}
}
