package dplace

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/abacus"
	"repro/internal/geom"
	"repro/internal/gplace"
	"repro/internal/maze"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/qlegal"
	"repro/internal/reslegal"
	"repro/internal/tetris"
	"repro/internal/topology"
)

// referenceRefine is the pre-optimization detailed placer: a fresh maze
// grid is built (and mass-blocked outside the window) for every
// candidate, routes are recomputed from scratch, and the window
// objective filters the full-layout metric lists. The incremental
// engine must reproduce its accepted layouts exactly.
func referenceRefine(n *netlist.Netlist, p Params) (Result, error) {
	var res Result
	for pass := 0; pass < p.MaxPasses; pass++ {
		res.Passes = pass + 1
		improved := false
		for _, e := range referenceCandidates(n, p) {
			res.Considered++
			if referenceRefineWindow(n, p, e) {
				res.Accepted++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return res, nil
}

func referenceCandidates(n *netlist.Netlist, p Params) []int {
	hot := metrics.ResonatorHotspotAll(n, p.Metrics)
	crossing := make([]int, len(n.Resonators))
	for _, cp := range metrics.CrossingPairs(n) {
		crossing[cp.EdgeI]++
		crossing[cp.EdgeJ]++
	}
	type cand struct {
		e        int
		clusters int
		hot      float64
		crosses  int
	}
	var cs []cand
	for e := range n.Resonators {
		cl := n.ClusterCount(e)
		if cl > 1 || hot[e] > 0 || crossing[e] > 0 {
			cs = append(cs, cand{e, cl, hot[e], crossing[e]})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].clusters != cs[j].clusters {
			return cs[i].clusters > cs[j].clusters
		}
		if cs[i].crosses != cs[j].crosses {
			return cs[i].crosses > cs[j].crosses
		}
		if cs[i].hot != cs[j].hot {
			return cs[i].hot > cs[j].hot
		}
		return cs[i].e < cs[j].e
	})
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.e
	}
	return out
}

func referenceRefineWindow(n *netlist.Netlist, p Params, e int) bool {
	group := referenceWindowGroup(n, p, e)
	r := &refiner{n: n, p: p} // only for the windowRect helper
	win := r.windowRect(group)

	before := referenceMeasure(n, p, group)

	saved := map[int]geom.Pt{}
	for _, we := range group {
		for _, id := range n.Resonators[we].Blocks {
			saved[id] = n.Blocks[id].Pos
		}
	}

	if !referenceReroute(n, p, group, win) {
		referenceRevert(n, saved)
		return false
	}
	after := referenceMeasure(n, p, group)
	if !after.betterThan(before) {
		referenceRevert(n, saved)
		return false
	}
	return true
}

// referenceWindowGroup is the unpruned group selection: the block
// distance to every other resonator is measured, with no route-box
// screen, so a pruning slip in (*refiner).windowGroup changes the
// engine's groups but not these.
func referenceWindowGroup(n *netlist.Netlist, p Params, e int) []int {
	var nears []near
	for o := range n.Resonators {
		if o == e {
			continue
		}
		d := resonatorDistance(n, e, o)
		if d <= float64(p.WindowMargin)+1 {
			nears = append(nears, near{o, d})
		}
	}
	sort.Slice(nears, func(i, j int) bool {
		if nears[i].d != nears[j].d {
			return nears[i].d < nears[j].d
		}
		return nears[i].e < nears[j].e
	})
	group := []int{e}
	for _, nr := range nears {
		if len(group) > p.MaxAdjacent {
			break
		}
		group = append(group, nr.e)
	}
	return group
}

func referenceRevert(n *netlist.Netlist, saved map[int]geom.Pt) {
	for id, pos := range saved {
		n.Blocks[id].Pos = pos
	}
}

func referenceMeasure(n *netlist.Netlist, p Params, group []int) windowObjective {
	var o windowObjective
	inGroup := map[int]bool{}
	for _, e := range group {
		inGroup[e] = true
		o.clusters += n.ClusterCount(e)
	}
	for _, h := range metrics.Hotspots(n, p.Metrics) {
		if (h.EdgeI >= 0 && inGroup[h.EdgeI]) || (h.EdgeJ >= 0 && inGroup[h.EdgeJ]) {
			o.hotspots += h.Weight
		}
	}
	for _, cp := range metrics.CrossingPairs(n) {
		if inGroup[cp.EdgeI] || inGroup[cp.EdgeJ] {
			o.crossings++
		}
	}
	return o
}

func referenceReroute(n *netlist.Netlist, p Params, group []int, win geom.Rect) bool {
	g := maze.NewGrid(int(math.Round(n.W)), int(math.Round(n.H)))

	// Everything outside the window is unusable.
	x0 := int(math.Floor(win.MinX() + geom.Eps))
	y0 := int(math.Floor(win.MinY() + geom.Eps))
	x1 := int(math.Ceil(win.MaxX() - geom.Eps))
	y1 := int(math.Ceil(win.MaxY() - geom.Eps))
	for y := 0; y < g.H(); y++ {
		for x := 0; x < g.W(); x++ {
			if x < x0 || x >= x1 || y < y0 || y >= y1 {
				g.Block(maze.Cell{X: x, Y: y})
			}
		}
	}
	// Qubit macros are obstacles.
	for qi := range n.Qubits {
		rect := n.Qubits[qi].Rect()
		bx0 := int(math.Floor(rect.MinX() + geom.Eps))
		by0 := int(math.Floor(rect.MinY() + geom.Eps))
		bx1 := int(math.Ceil(rect.MaxX() - geom.Eps))
		by1 := int(math.Ceil(rect.MaxY() - geom.Eps))
		for y := by0; y < by1; y++ {
			for x := bx0; x < bx1; x++ {
				g.Block(maze.Cell{X: x, Y: y})
			}
		}
	}
	// Blocks of resonators outside the group are obstacles.
	inGroup := map[int]bool{}
	for _, e := range group {
		inGroup[e] = true
	}
	for i := range n.Blocks {
		if !inGroup[n.Blocks[i].Edge] {
			g.Block(cellOf(n.Blocks[i].Pos))
		}
	}

	for _, e := range group {
		if !referenceRouteResonator(n, g, e) {
			return false
		}
	}
	return true
}

func referenceRouteResonator(n *netlist.Netlist, g *maze.Grid, e int) bool {
	r := &n.Resonators[e]
	srcs := append([]maze.Cell(nil), referenceQubitAdjacent(n, g, r.Q1)...)
	dsts := append([]maze.Cell(nil), referenceQubitAdjacent(n, g, r.Q2)...)
	path := g.Route(srcs, dsts)
	if path == nil {
		return false
	}
	cells := g.Thicken(path, len(r.Blocks))
	if cells == nil {
		return false
	}
	for i, id := range r.Blocks {
		c := cells[i]
		n.Blocks[id].Pos = geom.Pt{X: float64(c.X) + 0.5, Y: float64(c.Y) + 0.5}
		g.Block(c)
	}
	return true
}

func referenceQubitAdjacent(n *netlist.Netlist, g *maze.Grid, q int) []maze.Cell {
	rect := n.Qubits[q].Rect()
	x0 := int(math.Floor(rect.MinX() + geom.Eps))
	y0 := int(math.Floor(rect.MinY() + geom.Eps))
	x1 := int(math.Ceil(rect.MaxX() - geom.Eps))
	y1 := int(math.Ceil(rect.MaxY() - geom.Eps))
	return g.Adjacent(x0, y0, x1, y1)
}

// legalizedWith builds a legalized layout for dev using the given
// resonator legalizer, so the determinism suite covers every upstream
// strategy the detailed placer can be asked to refine.
func legalizedWith(t *testing.T, dev *topology.Device, resLegalize func(*netlist.Netlist) error) *netlist.Netlist {
	t.Helper()
	n := topology.Build(dev, topology.DefaultBuildParams())
	gplace.Place(n, gplace.DefaultParams())
	if _, err := qlegal.Legalize(n, qlegal.QuantumParams()); err != nil {
		t.Fatal(err)
	}
	if err := resLegalize(n); err != nil {
		t.Fatal(err)
	}
	return n
}

// strategies are the resonator legalization flavors feeding qGDP-DP in
// the determinism suite.
var strategies = []struct {
	name     string
	legalize func(*netlist.Netlist) error
}{
	{"qGDP-LG", func(n *netlist.Netlist) error { _, err := reslegal.Legalize(n); return err }},
	{"Q-Tetris", func(n *netlist.Netlist) error { _, err := tetris.Legalize(n); return err }},
	{"Q-Abacus", func(n *netlist.Netlist) error { _, err := abacus.Legalize(n); return err }},
}

// TestRefineMatchesSerialReference asserts the incremental-grid engine
// reproduces the rebuild-per-candidate reference exactly: identical
// block positions, identical acceptance counts, on every topology and
// every upstream legalization strategy.
func TestRefineMatchesSerialReference(t *testing.T) {
	p := DefaultParams()
	for _, dev := range testDevices() {
		for _, strat := range strategies {
			name := dev.Name + "/" + strat.name
			base := legalizedWith(t, dev, strat.legalize)

			got := base.Clone()
			gotRes, err := Refine(got, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			want := base.Clone()
			wantRes, err := referenceRefine(want, p)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}

			if gotRes != wantRes {
				t.Errorf("%s: result %+v, reference %+v", name, gotRes, wantRes)
			}
			for i := range got.Blocks {
				if got.Blocks[i].Pos != want.Blocks[i].Pos {
					t.Fatalf("%s: block %d at %v, reference %v",
						name, i, got.Blocks[i].Pos, want.Blocks[i].Pos)
				}
			}
		}
	}
}

// TestWindowGroupAndMeasureMatchReference checks the two per-window
// scans directly on unrefined layouts: the pruned group selection equals
// the unpruned reference, and the group-restricted objective equals the
// full-layout metrics filtered to the group, for every resonator's
// window on every upstream strategy.
func TestWindowGroupAndMeasureMatchReference(t *testing.T) {
	p := DefaultParams()
	for _, dev := range testDevices() {
		for _, strat := range strategies {
			name := dev.Name + "/" + strat.name
			n := legalizedWith(t, dev, strat.legalize)
			r := newRefiner(n, p)
			for e := range n.Resonators {
				group := r.windowGroup(e)
				want := referenceWindowGroup(n, p, e)
				if !slices.Equal(group, want) {
					t.Fatalf("%s: window group of %d = %v, reference %v", name, e, group, want)
				}
				for _, ge := range group {
					r.inGroup[ge] = true
				}
				got, ref := r.measure(group), referenceMeasure(n, p, group)
				for _, ge := range group {
					r.inGroup[ge] = false
				}
				if got != ref {
					t.Fatalf("%s: window %v objective %+v, reference %+v", name, group, got, ref)
				}
			}
		}
	}
}
