package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/topology"
)

// filteredGroupWeight is the oracle for GroupHotspotWeight: the full
// Hotspots list filtered to pairs touching the group, summed in list
// order.
func filteredGroupWeight(hs []PairHotspot, inGroup []bool) float64 {
	var sum float64
	for _, h := range hs {
		if (h.EdgeI >= 0 && inGroup[h.EdgeI]) || (h.EdgeJ >= 0 && inGroup[h.EdgeJ]) {
			sum += h.Weight
		}
	}
	return sum
}

// edgeResonator returns the resonator with the block closest to the
// substrate boundary.
func edgeResonator(n *netlist.Netlist) int {
	best, bestD := 0, math.Inf(1)
	for i := range n.Blocks {
		p := n.Blocks[i].Pos
		d := math.Min(math.Min(p.X, p.Y), math.Min(n.W-p.X, n.H-p.Y))
		if d < bestD {
			best, bestD = n.Blocks[i].Edge, d
		}
	}
	return best
}

// TestGroupHotspotWeightMatchesFilteredHotspots pins the neighborhood-
// restricted kernel to the full enumeration: for single resonators,
// seeded random 4-resonator groups, a group at the substrate edge, the
// whole layout and the empty group, the sum must equal the filtered
// Hotspots sum bit for bit.
func TestGroupHotspotWeightMatchesFilteredHotspots(t *testing.T) {
	devs := topology.Small()
	if !testing.Short() {
		devs = topology.All()
	}
	p := DefaultParams()
	for _, dev := range devs {
		n := crossingLayout(t, dev)
		m := len(n.Resonators)
		hs := Hotspots(n, p)
		inGroup := make([]bool, m)
		nonzero := 0
		check := func(label string, group []int) {
			t.Helper()
			clear(inGroup)
			for _, e := range group {
				inGroup[e] = true
			}
			want := filteredGroupWeight(hs, inGroup)
			got := GroupHotspotWeight(n, p, inGroup)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s %v: GroupHotspotWeight = %v, filtered Hotspots = %v",
					dev.Name, label, group, got, want)
			}
			if want != 0 {
				nonzero++
			}
		}

		for e := 0; e < m; e++ {
			check("single", []int{e})
		}
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 50; k++ {
			check("random", rng.Perm(m)[:min(4, m)])
		}
		check("substrate edge", []int{edgeResonator(n)})
		all := make([]int, m)
		for e := range all {
			all[e] = e
		}
		check("all", all)
		check("empty", nil)

		// A layout without a single hotspot pair would make every
		// comparison 0 == 0.
		if nonzero == 0 {
			t.Errorf("%s: no group has hotspot weight; the comparison shows nothing", dev.Name)
		}
	}
}
