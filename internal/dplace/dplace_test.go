package dplace

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/topology"
)

// legalized is dev placed and legalized with qGDP-LG, the default
// input to detailed placement.
func legalized(t *testing.T, dev *topology.Device) *netlist.Netlist {
	t.Helper()
	return legalizedWith(t, dev, strategies[0].legalize)
}

func assertLegal(t *testing.T, name string, n *netlist.Netlist) {
	t.Helper()
	border := n.Border()
	occupied := map[[2]int]int{}
	for i := range n.Blocks {
		r := n.BlockRect(i)
		if !border.ContainsRect(r) {
			t.Errorf("%s: block %d outside border", name, i)
		}
		key := [2]int{int(n.Blocks[i].Pos.X), int(n.Blocks[i].Pos.Y)}
		if prev, dup := occupied[key]; dup {
			t.Errorf("%s: blocks %d and %d share bin %v", name, prev, i, key)
		}
		occupied[key] = i
		for _, q := range n.Qubits {
			if r.Overlaps(q.Rect()) {
				t.Errorf("%s: block %d overlaps qubit %d", name, i, q.ID)
			}
		}
	}
}

// testDevices trims the topology sweep under -short.
func testDevices() []*topology.Device {
	if testing.Short() {
		return topology.Small()
	}
	return topology.All()
}

// Table III shape: qGDP-DP must never regress any metric relative to
// qGDP-LG, on every topology.
func TestRefineNeverRegresses(t *testing.T) {
	p := DefaultParams()
	for _, dev := range testDevices() {
		n := legalized(t, dev)
		before := metrics.Analyze(n, p.Metrics)
		if _, err := Refine(n, p); err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		after := metrics.Analyze(n, p.Metrics)
		assertLegal(t, dev.Name, n)

		if after.Unified < before.Unified {
			t.Errorf("%s: unified regressed %d -> %d", dev.Name, before.Unified, after.Unified)
		}
		if after.TotalClusters > before.TotalClusters {
			t.Errorf("%s: clusters regressed %d -> %d", dev.Name, before.TotalClusters, after.TotalClusters)
		}
	}
}

// DP must strictly improve at least one topology's hotspot or crossing
// picture overall (the Table III deltas).
func TestRefineImprovesSomewhere(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full topology sweep to assert an improvement exists")
	}
	p := DefaultParams()
	improved := false
	for _, dev := range topology.All() {
		n := legalized(t, dev)
		before := metrics.Analyze(n, p.Metrics)
		res, err := Refine(n, p)
		if err != nil {
			t.Fatal(err)
		}
		after := metrics.Analyze(n, p.Metrics)
		if after.Ph < before.Ph-1e-9 || after.Crossings < before.Crossings ||
			after.TotalClusters < before.TotalClusters {
			improved = true
		}
		_ = res
	}
	if !improved {
		t.Error("detailed placement improved nothing on any topology")
	}
}

func TestRefineDoesNotMoveQubits(t *testing.T) {
	n := legalized(t, topology.Grid25())
	var before []float64
	for _, q := range n.Qubits {
		before = append(before, q.Pos.X, q.Pos.Y)
	}
	if _, err := Refine(n, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, q := range n.Qubits {
		if q.Pos.X != before[i] || q.Pos.Y != before[i+1] {
			t.Fatalf("qubit %d moved", q.ID)
		}
		i += 2
	}
}

func TestRefineDeterministic(t *testing.T) {
	run := func() []float64 {
		n := legalized(t, topology.Falcon27())
		if _, err := Refine(n, DefaultParams()); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, b := range n.Blocks {
			out = append(out, b.Pos.X, b.Pos.Y)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("detailed placement not deterministic")
		}
	}
}

func TestRefineOnCleanLayoutIsNoop(t *testing.T) {
	// A layout with no candidates (no hotspots, unified, no crossings)
	// must be untouched. Build a tiny ideal instance.
	n := &netlist.Netlist{Name: "clean", W: 20, H: 20, BlockSize: 1}
	n.Qubits = []netlist.Qubit{
		{ID: 0, Pos: pt(3.5, 9.5), Size: 3, Freq: 5.0},
		{ID: 1, Pos: pt(16.5, 9.5), Size: 3, Freq: 5.07},
	}
	r := netlist.Resonator{ID: 0, Q1: 0, Q2: 1, Freq: 7.0, Length: 5}
	for i := 0; i < 5; i++ {
		n.Blocks = append(n.Blocks, netlist.WireBlock{
			ID: i, Edge: 0, Index: i, Pos: pt(5.5+float64(i)*2, 9.5),
		})
		r.Blocks = append(r.Blocks, i)
	}
	// Make them contiguous for a single cluster.
	for i := range n.Blocks {
		n.Blocks[i].Pos = pt(5.5+float64(i), 9.5)
	}
	n.Resonators = []netlist.Resonator{r}
	res, err := Refine(n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 0 {
		t.Errorf("clean layout produced %d candidates", res.Considered)
	}
}

func pt(x, y float64) geom.Pt { return geom.Pt{X: x, Y: y} }
