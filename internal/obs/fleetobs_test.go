package obs

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestAccountingChargesAndSnapshot(t *testing.T) {
	a := NewAccounting()
	ts := a.Tenant("acme")
	ts.Request()
	ts.Request()
	ts.CacheHit()
	ts.Shed()
	ts.DeadlineBlow()
	ts.AddCompute(1500 * time.Millisecond)
	ts.AddQueueWait(250 * time.Millisecond)
	a.Tenant("beta").Request()

	rows := a.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Tenant != "acme" || rows[1].Tenant != "beta" {
		t.Fatalf("rows not sorted by tenant: %+v", rows)
	}
	r := rows[0]
	if r.Requests != 2 || r.CacheHits != 1 || r.Sheds != 1 || r.DeadlineBlown != 1 {
		t.Fatalf("acme counters wrong: %+v", r)
	}
	if r.ComputeSeconds != 1.5 || r.QueueWaitSeconds != 0.25 {
		t.Fatalf("acme durations wrong: %+v", r)
	}
}

func TestAccountingNilSafety(t *testing.T) {
	var a *Accounting
	if got := a.Tenant("x"); got != nil {
		t.Fatalf("nil Accounting Tenant = %v, want nil", got)
	}
	if got := a.Snapshot(); got != nil {
		t.Fatalf("nil Accounting Snapshot = %v, want nil", got)
	}
	var ts *TenantStats
	ts.Request()
	ts.CacheHit()
	ts.Shed()
	ts.DeadlineBlow()
	ts.AddCompute(time.Second)
	ts.AddQueueWait(time.Second)
	if got := NewAccounting().Tenant(""); got != nil {
		t.Fatalf("empty tenant name should yield nil sink, got %v", got)
	}
}

func TestAccountingOverflowFold(t *testing.T) {
	a := NewAccounting()
	for i := 0; i < maxTenants; i++ {
		a.Tenant(tenantName(i)).Request()
	}
	over := a.Tenant("one-too-many")
	over.Request()
	over.Request()
	if over != a.Tenant(OverflowTenant) {
		t.Fatal("tenant past the cap should fold into the overflow row")
	}
	// Known tenants still resolve to their own rows past the cap.
	if a.Tenant(tenantName(7)) == over {
		t.Fatal("existing tenant folded into overflow")
	}
	rows := a.Snapshot()
	if len(rows) != maxTenants+1 {
		t.Fatalf("rows = %d, want %d", len(rows), maxTenants+1)
	}
	for _, r := range rows {
		if r.Tenant == OverflowTenant && r.Requests != 2 {
			t.Fatalf("overflow row requests = %d, want 2", r.Requests)
		}
	}
}

func tenantName(i int) string {
	const digits = "abcdefghij"
	return "t" + string([]byte{digits[i/1000%10], digits[i/100%10], digits[i/10%10], digits[i%10]})
}

func TestMergeTenants(t *testing.T) {
	a := []TenantSnapshot{{Tenant: "a", Requests: 1, ComputeSeconds: 0.5}, {Tenant: "b", Requests: 2}}
	b := []TenantSnapshot{{Tenant: "b", Requests: 3, Sheds: 1}, {Tenant: "c", CacheHits: 4}}
	m := MergeTenants(a, b)
	if len(m) != 3 || m[0].Tenant != "a" || m[1].Tenant != "b" || m[2].Tenant != "c" {
		t.Fatalf("merge rows wrong: %+v", m)
	}
	if m[1].Requests != 5 || m[1].Sheds != 1 {
		t.Fatalf("b row not summed: %+v", m[1])
	}
	if m[0].ComputeSeconds != 0.5 || m[2].CacheHits != 4 {
		t.Fatalf("merge lost fields: %+v", m)
	}
}

func TestParseSLO(t *testing.T) {
	good := []struct {
		in   string
		kind string
		thr  float64
		name string
	}{
		{"latency:p99:250ms:99.9", SLOLatency, 0.25, "latency_p99_250ms"},
		{"latency:p50:2s:95", SLOLatency, 2, "latency_p50_2s"},
		{"fidelity:min:0.85:99", SLOFidelity, 0.85, "fidelity_min_0.85"},
	}
	for _, tc := range good {
		sp, err := ParseSLO(tc.in)
		if err != nil {
			t.Fatalf("ParseSLO(%q): %v", tc.in, err)
		}
		if sp.Kind != tc.kind || sp.Threshold != tc.thr || sp.Name != tc.name {
			t.Fatalf("ParseSLO(%q) = %+v", tc.in, sp)
		}
	}
	bad := []string{
		"",
		"latency:p99:250ms",           // missing target
		"latency:q99:250ms:99.9",      // bad qualifier
		"latency:p99:fast:99.9",       // bad duration
		"latency:p99:250ms:100",       // target out of range
		"latency:p99:250ms:0",         // target out of range
		"fidelity:max:0.85:99",        // fidelity qualifier must be min
		"fidelity:min:1.5:99",         // floor out of range
		"throughput:p99:250ms:99.9",   // unknown kind
		"latency:p0:250ms:99.9",       // pNN out of range
		"latency:p99:250ms:99.9:more", // too many parts
		"latency:p99:1s:NaN",          // NaN target
		"latency:pNaN:1s:99",          // NaN quantile
		"fidelity:min:NaN:99",         // NaN floor
	}
	for _, in := range bad {
		if _, err := ParseSLO(in); err == nil {
			t.Fatalf("ParseSLO(%q) succeeded, want error", in)
		}
	}
}

// FuzzParseSLO checks that the -slo parser never panics and that every
// spec it accepts has a finite target in (0, 100) and a finite positive
// threshold, so burn rates and /slolz stay encodable.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{
		"latency:p99:250ms:99.9",
		"fidelity:min:0.85:99",
		"latency:p99:1s:NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSLO(s)
		if err != nil {
			return
		}
		if math.IsNaN(sp.Target) || sp.Target <= 0 || sp.Target >= 100 {
			t.Fatalf("ParseSLO(%q) accepted target %v", s, sp.Target)
		}
		if math.IsNaN(sp.Threshold) || math.IsInf(sp.Threshold, 0) || sp.Threshold <= 0 {
			t.Fatalf("ParseSLO(%q) accepted threshold %v", s, sp.Threshold)
		}
	})
}

func TestSLOWindowAdvance(t *testing.T) {
	w := newSLOWindow(10*time.Second, 30)
	base := int64(1000 * time.Second)
	for i := 0; i < 10; i++ {
		w.record(base, true)
	}
	w.record(base, false)
	if g, b := w.totals(base); g != 10 || b != 1 {
		t.Fatalf("totals = %d/%d, want 10/1", g, b)
	}
	// 2 slots later everything is still inside the 5m window.
	if g, b := w.totals(base + int64(20*time.Second)); g != 10 || b != 1 {
		t.Fatalf("totals after 20s = %d/%d, want 10/1", g, b)
	}
	// A full window later everything has rolled off.
	if g, b := w.totals(base + int64(300*time.Second)); g != 0 || b != 0 {
		t.Fatalf("totals after 5m = %d/%d, want 0/0", g, b)
	}
}

func TestSLOTrackerBurn(t *testing.T) {
	spec, err := ParseSLO("latency:p99:100ms:99")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewSLOTracker([]SLOSpec{spec})
	for i := 0; i < 90; i++ {
		tr.ObserveLatency(10 * time.Millisecond) // good
	}
	for i := 0; i < 10; i++ {
		tr.ObserveLatency(time.Second) // bad
	}
	rows := tr.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (fast+slow)", len(rows))
	}
	if rows[0].Window != WindowFast || rows[1].Window != WindowSlow {
		t.Fatalf("window order wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.Total != 100 || r.Good != 90 {
			t.Fatalf("row counts wrong: %+v", r)
		}
		// badFraction 0.1, budget 0.01 → burn 10.
		if r.BurnRate < 9.99 || r.BurnRate > 10.01 {
			t.Fatalf("burn = %g, want 10", r.BurnRate)
		}
	}
	if got := tr.MaxFastBurn(); got < 9.99 || got > 10.01 {
		t.Fatalf("MaxFastBurn = %g, want 10", got)
	}
	if !tr.FastBurnExceeded(5) {
		t.Fatal("FastBurnExceeded(5) = false, want true")
	}
	if tr.FastBurnExceeded(14.4) {
		t.Fatal("FastBurnExceeded(14.4) = true at burn 10")
	}
}

func TestSLOTrackerSampleFloor(t *testing.T) {
	spec, _ := ParseSLO("latency:p99:100ms:99.9")
	tr := NewSLOTracker([]SLOSpec{spec})
	// One catastrophic request must not trip the alert alone.
	tr.ObserveLatency(10 * time.Second)
	if tr.MaxFastBurn() != 0 {
		t.Fatalf("burn with %d samples = %g, want 0 (floor %d)", 1, tr.MaxFastBurn(), minSLOEvents)
	}
	if tr.FastBurnExceeded(1) {
		t.Fatal("alert tripped below the sample floor")
	}
}

func TestSLOTrackerNilSafety(t *testing.T) {
	var tr *SLOTracker
	tr.ObserveLatency(time.Second)
	tr.ObserveFidelity(0.5)
	if tr.Snapshot() != nil || tr.Specs() != nil || tr.MaxFastBurn() != 0 || tr.FastBurnExceeded(1) {
		t.Fatal("nil tracker methods must be no-ops")
	}
	if NewSLOTracker(nil) != nil {
		t.Fatal("NewSLOTracker(nil) should be nil")
	}
}

func TestMergeSLOs(t *testing.T) {
	a := []SLOState{
		{SLO: "l", Window: WindowFast, Target: 99, Good: 90, Total: 100},
		{SLO: "l", Window: WindowSlow, Target: 99, Good: 990, Total: 1000},
	}
	b := []SLOState{
		{SLO: "l", Window: WindowFast, Target: 99, Good: 100, Total: 100},
	}
	m := MergeSLOs(a, b)
	if len(m) != 2 {
		t.Fatalf("rows = %d, want 2", len(m))
	}
	fast := m[0]
	if fast.Window != WindowFast || fast.Good != 190 || fast.Total != 200 {
		t.Fatalf("fast row wrong: %+v", fast)
	}
	// badFraction 10/200 = 0.05, budget 0.01 → burn 5.
	if fast.BurnRate < 4.99 || fast.BurnRate > 5.01 {
		t.Fatalf("merged burn = %g, want 5", fast.BurnRate)
	}
}

// TestFastPathZeroAlloc pins the accounting/SLO fast-path cost at zero
// allocations: these sit on the cache-hit request path under the CI
// zero-alloc guard.
func TestFastPathZeroAlloc(t *testing.T) {
	a := NewAccounting()
	a.Tenant("hot") // pre-created: steady state is Load + assert
	if n := testing.AllocsPerRun(100, func() {
		ts := a.Tenant("hot")
		ts.Request()
		ts.CacheHit()
		ts.AddQueueWait(0)
	}); n != 0 {
		t.Fatalf("accounting fast path allocates %g/op, want 0", n)
	}

	spec, _ := ParseSLO("latency:p99:100ms:99.9")
	tr := NewSLOTracker([]SLOSpec{spec})
	if n := testing.AllocsPerRun(100, func() {
		tr.ObserveLatency(5 * time.Millisecond)
		tr.ObserveFidelity(0.9)
	}); n != 0 {
		t.Fatalf("SLO observe allocates %g/op, want 0", n)
	}
}

func TestHistSnapshotMergeAndQuantile(t *testing.T) {
	h1 := newHistogram(DefBuckets)
	h2 := newHistogram(DefBuckets)
	for i := 0; i < 99; i++ {
		h1.Observe(0.002)
	}
	h2.Observe(5.0)
	m := h1.Snapshot().Merge(h2.Snapshot())
	if m.Count != 100 {
		t.Fatalf("merged count = %d, want 100", m.Count)
	}
	p50 := m.Quantile(0.50, DefBuckets)
	p99 := m.Quantile(0.99, DefBuckets)
	if p50 > 0.01 {
		t.Fatalf("p50 = %g, want a small bucket bound", p50)
	}
	if p99 > 0.01 {
		t.Fatalf("p99 = %g: 99/100 observations are 2ms", p99)
	}
	if q := m.Quantile(1.0, DefBuckets); q < 5.0 {
		t.Fatalf("p100 = %g, want ≥ 5s bucket bound", q)
	}
	var zero HistSnapshot
	if q := zero.Quantile(0.5, DefBuckets); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

func TestProfilerRingBound(t *testing.T) {
	dir := t.TempDir()
	p, err := StartProfiler(ProfilerOptions{
		Dir:         dir,
		Interval:    10 * time.Millisecond,
		CPUDuration: time.Millisecond,
		Keep:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Captures() < 6 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	p.Close()
	if p.Captures() < 6 {
		t.Fatalf("captures = %d after 5s, want ≥ 6", p.Captures())
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Ring bound: at most 2×Keep files survive pruning (the final
	// capture lands after its prune, so allow one extra round).
	if len(ents) > 2*2+2 {
		t.Fatalf("ring holds %d files, want ≤ %d", len(ents), 2*2+2)
	}
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) != ".pprof" {
			t.Fatalf("unexpected file %q in ring", name)
		}
	}

	idx := p.Entries()
	if len(idx) == 0 {
		t.Fatal("Entries() empty after captures")
	}
	for i := 1; i < len(idx); i++ {
		if idx[i-1].Name < idx[i].Name {
			// Newest-first ordering on timestamped names.
			ti := idx[i-1].Name[len("cpu-"):]
			tj := idx[i].Name[len("cpu-"):]
			if ti < tj {
				t.Fatalf("Entries not newest-first: %q before %q", idx[i-1].Name, idx[i].Name)
			}
		}
	}

	f, err := p.Open(idx[0].Name)
	if err != nil {
		t.Fatalf("Open(%q): %v", idx[0].Name, err)
	}
	f.Close()
	for _, evil := range []string{"../etc/passwd", "/etc/passwd", "cpu-x.txt", ""} {
		if f, err := p.Open(evil); err == nil {
			f.Close()
			t.Fatalf("Open(%q) succeeded, want rejection", evil)
		}
	}
}
