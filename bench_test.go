// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md §3):
//
//	BenchmarkFig8*    — program fidelity bars (Fig. 8)
//	BenchmarkFig9*    — layout metric evaluation (Fig. 9)
//	BenchmarkTable2*  — legalization runtimes t_q / t_e (Table II)
//	BenchmarkTable3*  — detailed placement (Table III)
//	BenchmarkAblation* — design-choice ablations called out in DESIGN.md
//
// Quality metrics (unified ratio, crossings, Ph) are attached to the
// benchmark output via b.ReportMetric, so `go test -bench=.` regenerates
// both the timing and the quality numbers. cmd/qgdp-bench prints the
// full paper-formatted tables.
package repro_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/abacus"
	"repro/internal/core"
	"repro/internal/dplace"
	"repro/internal/fidelity"
	"repro/internal/geom"
	"repro/internal/gplace"
	"repro/internal/maze"
	"repro/internal/mcf"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/qbench"
	"repro/internal/qlegal"
	"repro/internal/reslegal"
	"repro/internal/service"
	"repro/internal/tetris"
	"repro/internal/topology"
	"repro/internal/transpile"
)

var (
	gpOnce  sync.Once
	gpCache map[string]*netlist.Netlist
)

// gpFor returns the shared global-placement solution for a topology;
// benchmarks legalize clones of it, never the original.
func gpFor(b *testing.B, name string) *netlist.Netlist {
	b.Helper()
	gpOnce.Do(func() {
		gpCache = map[string]*netlist.Netlist{}
		cfg := core.DefaultConfig()
		for _, dev := range topology.All() {
			gpCache[dev.Name] = core.Prepare(dev, cfg)
		}
	})
	n, ok := gpCache[name]
	if !ok {
		b.Fatalf("unknown topology %s", name)
	}
	return n
}

// legalized returns a fresh qGDP-LG layout for a topology.
func legalized(b *testing.B, name string) *netlist.Netlist {
	b.Helper()
	n := gpFor(b, name).Clone()
	if _, err := qlegal.Legalize(n, qlegal.QuantumParams()); err != nil {
		b.Fatal(err)
	}
	if _, err := reslegal.Legalize(n); err != nil {
		b.Fatal(err)
	}
	return n
}

var evalTopos = []string{"Grid", "Xtree", "Falcon", "Eagle", "Aspen-11", "Aspen-M"}

// --- Table II: legalization runtime ---------------------------------

// BenchmarkTable2QubitLegalization times t_q for the quantum and the
// classic macro legalizer on every topology.
func BenchmarkTable2QubitLegalization(b *testing.B) {
	for _, topo := range evalTopos {
		for _, flavor := range []struct {
			name string
			p    qlegal.Params
		}{
			{"quantum", qlegal.QuantumParams()},
			{"classic", qlegal.ClassicParams()},
		} {
			b.Run(topo+"/"+flavor.name, func(b *testing.B) {
				gp := gpFor(b, topo)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n := gp.Clone()
					if _, err := qlegal.Legalize(n, flavor.p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2ResonatorLegalization times t_e for the three resonator
// legalizers on every topology (qubits pre-legalized outside the timer).
func BenchmarkTable2ResonatorLegalization(b *testing.B) {
	for _, topo := range evalTopos {
		pre := func(b *testing.B) *netlist.Netlist {
			n := gpFor(b, topo).Clone()
			if _, err := qlegal.Legalize(n, qlegal.QuantumParams()); err != nil {
				b.Fatal(err)
			}
			return n
		}
		b.Run(topo+"/qGDP", func(b *testing.B) {
			base := pre(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := base.Clone()
				if _, err := reslegal.Legalize(n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(topo+"/tetris", func(b *testing.B) {
			base := pre(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := base.Clone()
				if _, err := tetris.Legalize(n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(topo+"/abacus", func(b *testing.B) {
			base := pre(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := base.Clone()
				if _, err := abacus.Legalize(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 8: program fidelity ----------------------------------------

// BenchmarkFig8FidelityBar evaluates one fidelity bar (benchmark x
// layout) per iteration and reports the fidelity value as a metric.
func BenchmarkFig8FidelityBar(b *testing.B) {
	p := fidelity.DefaultParams()
	for _, topo := range []string{"Grid", "Falcon", "Eagle"} {
		for _, bench := range []string{"bv-4", "bv-16", "qgan-9"} {
			b.Run(topo+"/"+bench, func(b *testing.B) {
				lay := legalized(b, topo)
				c, err := qbench.ByName(bench)
				if err != nil {
					b.Fatal(err)
				}
				var f float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f, err = fidelity.Average(lay, c, p, 5)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(f, "fidelity")
			})
		}
	}
}

// BenchmarkFig8Transpile isolates the mapping cost underlying each bar.
func BenchmarkFig8Transpile(b *testing.B) {
	for _, bench := range []string{"bv-4", "bv-16", "qgan-9"} {
		b.Run("Eagle/"+bench, func(b *testing.B) {
			lay := legalized(b, "Eagle")
			c, err := qbench.ByName(bench)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := transpile.Map(c, lay, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 9: layout metric evaluation --------------------------------

// BenchmarkFig9Analyze times the full metric sweep (clusters, crossings,
// Ph, HQ) and reports the quality values for the qGDP-LG layout.
func BenchmarkFig9Analyze(b *testing.B) {
	p := metrics.DefaultParams()
	for _, topo := range evalTopos {
		b.Run(topo, func(b *testing.B) {
			lay := legalized(b, topo)
			var rep metrics.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep = metrics.Analyze(lay, p)
			}
			b.ReportMetric(float64(rep.Crossings), "crossings")
			b.ReportMetric(rep.Ph, "Ph_pct")
			b.ReportMetric(float64(rep.Unified)/float64(rep.TotalResonators), "unified_ratio")
		})
	}
}

// --- Table III: detailed placement -----------------------------------

// BenchmarkTable3DetailedPlacement times one full qGDP-DP refinement per
// iteration and reports the post-DP quality.
func BenchmarkTable3DetailedPlacement(b *testing.B) {
	p := dplace.DefaultParams()
	for _, topo := range evalTopos {
		b.Run(topo, func(b *testing.B) {
			base := legalized(b, topo)
			var rep metrics.Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := base.Clone()
				if _, err := dplace.Refine(n, p); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rep = metrics.Analyze(n, p.Metrics)
				b.StartTimer()
			}
			b.ReportMetric(float64(rep.Crossings), "crossings")
			b.ReportMetric(rep.Ph, "Ph_pct")
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---------------

// BenchmarkAblationPseudoConnections contrasts GP block compactness with
// and without the pseudo-connection netlist (the Fig. 5 motivation);
// lower gyration = more compact resonator clumps.
func BenchmarkAblationPseudoConnections(b *testing.B) {
	for _, mode := range []struct {
		name   string
		pseudo bool
	}{{"pseudo", true}, {"snake", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var gyr float64
			for i := 0; i < b.N; i++ {
				n := topology.Build(topology.Grid25(), topology.DefaultBuildParams())
				p := gplace.DefaultParams()
				p.UsePseudo = mode.pseudo
				gplace.Place(n, p)
				var sum float64
				for e := range n.Resonators {
					sum += gplace.ResonatorGyration(n, e)
				}
				gyr = sum / float64(len(n.Resonators))
			}
			b.ReportMetric(gyr, "gyration")
		})
	}
}

// BenchmarkAblationFreqAwareness contrasts the fully frequency-aware
// flow (freq-aware GP repulsion + freq-aware spacing in qubit LG)
// against a frequency-blind flow; reports the resulting qubit-pair
// hotspot weight on Xtree, whose degree-4 hubs force tone reuse.
func BenchmarkAblationFreqAwareness(b *testing.B) {
	for _, mode := range []struct {
		name  string
		aware bool
	}{{"freq-aware", true}, {"freq-blind", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var qw float64
			for i := 0; i < b.N; i++ {
				n := topology.Build(topology.Xtree53(), topology.DefaultBuildParams())
				gpp := gplace.DefaultParams()
				gpp.FreqAware = mode.aware
				gplace.Place(n, gpp)
				lp := qlegal.QuantumParams()
				if !mode.aware {
					lp.FreqExtra = 0
				}
				if _, err := qlegal.Legalize(n, lp); err != nil {
					b.Fatal(err)
				}
				qw = 0
				for _, h := range metrics.Hotspots(n, metrics.DefaultParams()) {
					if h.QubitI >= 0 {
						qw += h.Weight
					}
				}
			}
			b.ReportMetric(qw, "qubit_hotspot_weight")
		})
	}
}

// BenchmarkAblationHotspotPenalty contrasts integration-aware resonator
// legalization with and without the frequency-aware bin penalty.
func BenchmarkAblationHotspotPenalty(b *testing.B) {
	for _, mode := range []struct {
		name    string
		penalty float64
	}{{"freq-aware", 4.0}, {"displacement-only", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			saved := reslegal.HotspotPenalty
			reslegal.HotspotPenalty = mode.penalty
			defer func() { reslegal.HotspotPenalty = saved }()
			gp := gpFor(b, "Falcon")
			var ph float64
			for i := 0; i < b.N; i++ {
				n := gp.Clone()
				if _, err := qlegal.Legalize(n, qlegal.QuantumParams()); err != nil {
					b.Fatal(err)
				}
				if _, err := reslegal.Legalize(n); err != nil {
					b.Fatal(err)
				}
				ph = metrics.Ph(n, metrics.DefaultParams())
			}
			b.ReportMetric(ph, "Ph_pct")
		})
	}
}

// BenchmarkGlobalPlacement times the GP substrate itself (netlist build
// included, as the serving layer pays it per cold request).
func BenchmarkGlobalPlacement(b *testing.B) {
	for _, topo := range []string{"Grid", "Falcon", "Eagle"} {
		b.Run(topo, func(b *testing.B) {
			dev, err := topology.ByName(topo)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := topology.Build(dev, topology.DefaultBuildParams())
				gplace.Place(n, gplace.DefaultParams())
			}
		})
	}
}

// --- Kernel benchmarks ------------------------------------------------
//
// The three hot kernels, isolated from instance construction so
// allocs/op reflects the kernel itself. These are the BENCH_*.json
// trajectory benchmarks: the zero-allocation acceptance criterion is
// ≥10× fewer allocs/op than the seed kernels.

// BenchmarkKernelGPlacePlace re-places the same seeded instance every
// iteration: positions are restored outside the kernel, so the op is
// exactly one gplace.Place call.
func BenchmarkKernelGPlacePlace(b *testing.B) {
	for _, topo := range []string{"Grid", "Eagle"} {
		b.Run(topo, func(b *testing.B) {
			dev, err := topology.ByName(topo)
			if err != nil {
				b.Fatal(err)
			}
			n := topology.Build(dev, topology.DefaultBuildParams())
			qpos := make([]geom.Pt, len(n.Qubits))
			bpos := make([]geom.Pt, len(n.Blocks))
			for i, q := range n.Qubits {
				qpos[i] = q.Pos
			}
			for i, blk := range n.Blocks {
				bpos[i] = blk.Pos
			}
			restore := func() {
				for i := range n.Qubits {
					n.Qubits[i].Pos = qpos[i]
				}
				for i := range n.Blocks {
					n.Blocks[i].Pos = bpos[i]
				}
			}
			restore()
			gplace.Place(n, gplace.DefaultParams()) // warm the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore()
				b.StartTimer()
				gplace.Place(n, gplace.DefaultParams())
			}
		})
	}
}

// BenchmarkKernelMazeRouteWarm routes across a warm obstacle grid — the
// detailed placer's steady-state Route call. Walls with staggered gaps
// force real detours.
func BenchmarkKernelMazeRouteWarm(b *testing.B) {
	const size = 64
	g := maze.NewGrid(size, size)
	for wall := 0; wall < 6; wall++ {
		x := 8 + wall*9
		gap := (wall * 17) % (size - 8)
		for y := 0; y < size; y++ {
			if y < gap || y > gap+3 {
				g.Block(maze.Cell{X: x, Y: y})
			}
		}
	}
	srcs := []maze.Cell{{X: 0, Y: 0}, {X: 0, Y: size - 1}}
	dsts := []maze.Cell{{X: size - 1, Y: size - 1}, {X: size - 1, Y: 0}}
	if g.Route(srcs, dsts) == nil { // warm the grid scratch
		b.Fatal("benchmark grid is unroutable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Route(srcs, dsts) == nil {
			b.Fatal("route failed")
		}
	}
}

// BenchmarkKernelMazeThickenWarm grows a routed path to a 24-cell
// region, the other half of the DP re-placement inner loop.
func BenchmarkKernelMazeThickenWarm(b *testing.B) {
	g := maze.NewGrid(48, 48)
	path := g.Route([]maze.Cell{{X: 4, Y: 24}}, []maze.Cell{{X: 20, Y: 24}})
	if path == nil {
		b.Fatal("route failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Thicken(path, 24) == nil {
			b.Fatal("thicken failed")
		}
	}
}

// BenchmarkKernelDPRefineWaves measures one full qGDP-DP refinement at
// a forced lane count (clone excluded from the timer): lanes=1 is the
// serial scan, lanes=4 the wave pipeline. Both produce bit-identical
// layouts (see the dplace determinism suite); the delta is the Table
// III speedup the parallelism budget buys on a multicore box.
func BenchmarkKernelDPRefineWaves(b *testing.B) {
	for _, topo := range []string{"Grid", "Eagle"} {
		for _, lanes := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/lanes-%d", topo, lanes), func(b *testing.B) {
				base := legalized(b, topo)
				p := dplace.DefaultParams()
				p.Lanes = lanes
				p.Par = parallel.NewBudget(lanes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					n := base.Clone()
					b.StartTimer()
					if _, err := dplace.Refine(n, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelCrossingPairs measures the crossing-pair scan (routes
// recomputed per call, as Analyze pays it) serial versus sharded.
func BenchmarkKernelCrossingPairs(b *testing.B) {
	for _, topo := range []string{"Grid", "Eagle"} {
		for _, lanes := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/lanes-%d", topo, lanes), func(b *testing.B) {
				lay := legalized(b, topo)
				bud := parallel.NewBudget(lanes)
				var crossings int
				metrics.CrossingPairsPar(lay, bud, lanes) // warm the scratch pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					crossings = len(metrics.CrossingPairsPar(lay, bud, lanes))
				}
				b.ReportMetric(float64(crossings), "crossings")
			})
		}
	}
}

// BenchmarkKernelMCFCancel measures one full negative-cycle-canceling
// solve, graph construction included — the per-solve cost the qubit
// legalizer pays on every relaxation level.
func BenchmarkKernelMCFCancel(b *testing.B) {
	arcs, n := mcf.LegalizerInstanceArcs(127, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mcf.NewGraph(n)
		for _, a := range arcs {
			g.AddArc(int(a[0]), int(a[1]), a[2], a[3])
		}
		if _, err := g.CancelNegativeCycles(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeLayoutHit is one served Eagle qGDP-DP layout-cache hit
// through the full HTTP handler stack (QoS front-end, tracing, store
// lookup, response encoding) into an httptest recorder. Its allocs/op
// is the hit-path allocation budget CI guards: a hit reads the stored
// report and encodes the layout once, so it must not grow with a
// per-request metrics pass or a second encoding.
func BenchmarkServeLayoutHit(b *testing.B) {
	e := service.New(service.Options{Workers: 2})
	defer e.Close()
	h := service.NewHandler(e)
	if _, err := e.Layout(context.Background(), service.LayoutRequest{
		Topology: "Eagle", Strategy: core.QGDPDP, Config: core.DefaultConfig(),
	}); err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/layout?topology=Eagle&strategy=qGDP-DP", nil)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve() // warm the pools a steady stream of hits reuses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
