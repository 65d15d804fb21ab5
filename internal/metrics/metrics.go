// Package metrics evaluates quantum layout quality: cluster counts and
// resonator integrity (Eq. 3), the frequency-hotspot proportion P_h
// (Eq. 4), the hotspot-qubit count H_Q, resonator crossing points X
// (airbridges), and qubit spacing violations. These are the observables
// of Fig. 9 and Table III and the inputs to the fidelity model (Eq. 7).
package metrics

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/freq"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// Params are the spatial and spectral thresholds of the hotspot metric.
type Params struct {
	// DMax is the range of the spatial proximity kernel in layout
	// units: pairs with a larger gap contribute nothing.
	DMax float64
	// DeltaQubit / DeltaResonator are the frequency-proximity thresholds
	// Δc of Eq. 4 for qubit-qubit and resonator-resonator pairs.
	DeltaQubit     float64
	DeltaResonator float64
	// MinQubitSpacing is the quantum spacing constraint (in layout
	// units) whose violation defines crosstalk-coupled qubit pairs.
	MinQubitSpacing float64
	// Par is the parallelism budget the sharded crossing scan draws
	// lanes from; nil uses the process-wide default. Lane count never
	// changes any metric value, so it is excluded from request hashing.
	Par *parallel.Budget `json:"-"`
}

// DefaultParams mirrors DESIGN.md §6.
func DefaultParams() Params {
	return Params{
		DMax:            1.6,
		DeltaQubit:      freq.DeltaQubit,
		DeltaResonator:  freq.DeltaResonator,
		MinQubitSpacing: 1.0,
	}
}

// PairHotspot is one contributing pair of the P_h sum: two components
// that are both spatially proximate and frequency-close.
type PairHotspot struct {
	// Qubit IDs (>= 0) or -1; EdgeI/EdgeJ are resonator IDs or -1.
	QubitI, QubitJ int
	EdgeI, EdgeJ   int
	// Weight is the pair's Eq. 4 numerator term:
	// sharedLength · proximity · τ.
	Weight float64
	// SharedLen and Gap describe the geometry (for the fidelity model's
	// adjacency capacitance).
	SharedLen, Gap float64
	// Tau is the frequency proximity factor.
	Tau float64
}

// Report is the full layout-quality summary.
type Report struct {
	TotalClusters   int
	Unified         int
	TotalResonators int
	Crossings       int
	Ph              float64 // percent
	HQ              int
	QubitViolations int
	Hotspots        []PairHotspot
}

// Analyze computes the full report.
func Analyze(n *netlist.Netlist, p Params) Report {
	r := Report{
		TotalClusters:   n.TotalClusters(),
		Unified:         n.UnifiedCount(),
		TotalResonators: len(n.Resonators),
		Crossings:       len(CrossingPairsPar(n, p.Par, 0)),
	}
	r.Hotspots = Hotspots(n, p)
	r.Ph = PhFromHotspots(n, r.Hotspots)
	r.HQ = HotspotQubits(n, r.Hotspots)
	r.QubitViolations = len(QubitViolationPairs(n, p))
	return r
}

// Hotspots enumerates all frequency-hotspot pairs of the layout:
// qubit-qubit pairs and wire-block pairs of different resonators that
// are spatially proximate (gap < DMax) and frequency-close (τ > 0).
// Blocks of the same resonator are one physical device and never pair.
func Hotspots(n *netlist.Netlist, p Params) []PairHotspot {
	var out []PairHotspot

	// Qubit-qubit pairs (few; quadratic scan is fine).
	for i := range n.Qubits {
		ri := n.Qubits[i].Rect()
		for j := i + 1; j < len(n.Qubits); j++ {
			rj := n.Qubits[j].Rect()
			gap := ri.Gap(rj)
			if gap >= p.DMax {
				continue
			}
			tau := freq.Tau(n.Qubits[i].Freq, n.Qubits[j].Freq, p.DeltaQubit)
			if tau <= 0 {
				continue
			}
			shared := ri.SharedLength(rj)
			if shared <= 0 {
				continue
			}
			w := shared * geom.ProximityKernel(gap, p.DMax) * tau
			if w <= 0 {
				continue
			}
			out = append(out, PairHotspot{
				QubitI: i, QubitJ: j, EdgeI: -1, EdgeJ: -1,
				Weight: w, SharedLen: shared, Gap: gap, Tau: tau,
			})
		}
	}

	// Block-block pairs via the shared bucket grid (blocks are numerous).
	forEachBlockHotspot(n, p, nil, func(h PairHotspot) {
		out = append(out, h)
	})
	return out
}

// hotScratch is the pooled scratch of the block-hotspot enumeration:
// the bucket grid, and the per-block primary marks of a group-restricted
// scan. A mark is live when it equals the current epoch, so the array is
// never cleared in full between calls.
type hotScratch struct {
	grid  spatial.Grid
	mark  []uint32
	epoch uint32
}

// hotPool recycles the enumeration scratch across metric evaluations;
// the hotspot enumeration runs on every detailed-placement window, so
// rebuilding a map hash per call would dominate the DP profile.
var hotPool = sync.Pool{New: func() any { return new(hotScratch) }}

// forEachBlockHotspot enumerates proximate block-block hotspot pairs in
// the canonical order (ascending primary block, fixed neighbor-bucket
// sweep, ascending secondary within a bucket) and calls emit for each.
//
// When inGroup is non-nil, only pairs with at least one resonator in the
// group are emitted, and only primaries in the 3×3 bucket neighborhood
// of a group block are scanned: a surviving pair (i<j) has i or j in the
// group, and if it is j then i lies in one of j's neighbor buckets,
// because bucket adjacency is symmetric. The surviving pairs therefore
// keep their enumeration order, and so does any order-sensitive
// accumulation over them.
func forEachBlockHotspot(n *netlist.Netlist, p Params, inGroup []bool, emit func(PairHotspot)) {
	cell := math.Max(2, p.DMax+1)
	s := hotPool.Get().(*hotScratch)
	defer hotPool.Put(s)
	grid := &s.grid
	grid.Build(cell, len(n.Blocks), func(i int) (float64, float64) {
		return n.Blocks[i].Pos.X, n.Blocks[i].Pos.Y
	})
	if inGroup != nil {
		s.markGroupNeighborhood(n, inGroup)
	}
	for i := range n.Blocks {
		if inGroup != nil && s.mark[i] != s.epoch {
			continue
		}
		bi := &n.Blocks[i]
		kx, ky := grid.Key(bi.Pos.X, bi.Pos.Y)
		ri := n.BlockRect(i)
		fi := n.Resonators[bi.Edge].Freq
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j32 := range grid.Bucket(kx+dx, ky+dy) {
					j := int(j32)
					if j <= i {
						continue
					}
					bj := &n.Blocks[j]
					if bj.Edge == bi.Edge {
						continue
					}
					if inGroup != nil && !inGroup[bi.Edge] && !inGroup[bj.Edge] {
						continue
					}
					rj := n.BlockRect(j)
					gap := ri.Gap(rj)
					if gap >= p.DMax {
						continue
					}
					fj := n.Resonators[bj.Edge].Freq
					tau := freq.Tau(fi, fj, p.DeltaResonator)
					if tau <= 0 {
						continue
					}
					shared := ri.SharedLength(rj)
					if shared <= 0 {
						continue
					}
					w := shared * geom.ProximityKernel(gap, p.DMax) * tau
					if w <= 0 {
						continue
					}
					emit(PairHotspot{
						QubitI: -1, QubitJ: -1, EdgeI: bi.Edge, EdgeJ: bj.Edge,
						Weight: w, SharedLen: shared, Gap: gap, Tau: tau,
					})
				}
			}
		}
	}
}

// markGroupNeighborhood stamps the current epoch on every block in the
// 3×3 bucket neighborhood of a block of a group resonator. The grid must
// already be built over n's blocks.
func (s *hotScratch) markGroupNeighborhood(n *netlist.Netlist, inGroup []bool) {
	if cap(s.mark) < len(n.Blocks) {
		s.mark = make([]uint32, len(n.Blocks))
		s.epoch = 0
	}
	s.mark = s.mark[:len(n.Blocks)]
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide
		clear(s.mark)
		s.epoch = 1
	}
	for e := range n.Resonators {
		if !inGroup[e] {
			continue
		}
		for _, id := range n.Resonators[e].Blocks {
			kx, ky := s.grid.Key(n.Blocks[id].Pos.X, n.Blocks[id].Pos.Y)
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					for _, j := range s.grid.Bucket(kx+dx, ky+dy) {
						s.mark[j] = s.epoch
					}
				}
			}
		}
	}
}

// GroupHotspotWeight sums the weights of the block-block hotspot pairs
// that involve at least one resonator with inGroup[e] true. It equals,
// bit for bit, filtering Hotspots over the same predicate and summing in
// list order (qubit-qubit pairs carry EdgeI = EdgeJ = -1 and never
// match) — but visits only the group's bucket neighborhood, which is
// what makes the detailed placer's per-window objective cost its window
// rather than the whole layout.
func GroupHotspotWeight(n *netlist.Netlist, p Params, inGroup []bool) float64 {
	var sum float64
	forEachBlockHotspot(n, p, inGroup, func(h PairHotspot) { sum += h.Weight })
	return sum
}

// PhFromHotspots computes the Eq. 4 ratio (as a percentage) from an
// already-enumerated hotspot list: the weighted pair sum normalized by
// total component area.
func PhFromHotspots(n *netlist.Netlist, hotspots []PairHotspot) float64 {
	var num float64
	for _, h := range hotspots {
		num += h.Weight
	}
	var area float64
	for _, q := range n.Qubits {
		area += q.Size * q.Size
	}
	area += float64(len(n.Blocks)) * n.BlockSize * n.BlockSize
	if area <= 0 {
		return 0
	}
	return 100 * num / area
}

// Ph is the one-call version of the Eq. 4 metric.
func Ph(n *netlist.Netlist, p Params) float64 {
	return PhFromHotspots(n, Hotspots(n, p))
}

// HotspotQubits counts the distinct qubits under crosstalk risk H_Q:
// members of qubit-qubit hotspot pairs plus the endpoint qubits of
// resonators involved in resonator-resonator hotspots.
func HotspotQubits(n *netlist.Netlist, hotspots []PairHotspot) int {
	hot := map[int]bool{}
	for _, h := range hotspots {
		if h.QubitI >= 0 {
			hot[h.QubitI] = true
			hot[h.QubitJ] = true
			continue
		}
		for _, e := range []int{h.EdgeI, h.EdgeJ} {
			hot[n.Resonators[e].Q1] = true
			hot[n.Resonators[e].Q2] = true
		}
	}
	return len(hot)
}

// ResonatorHotspot returns H_e: the summed hotspot weight involving
// resonator e's wire blocks (or its endpoint qubits' pairs do not count;
// Algorithm 2 targets resonators). Used to build E_h in detailed
// placement.
func ResonatorHotspot(n *netlist.Netlist, p Params, e int) float64 {
	var sum float64
	for _, h := range Hotspots(n, p) {
		if h.EdgeI == e || h.EdgeJ == e {
			sum += h.Weight
		}
	}
	return sum
}

// ResonatorHotspotAll returns H_e for every resonator in one pass.
func ResonatorHotspotAll(n *netlist.Netlist, p Params) []float64 {
	out := make([]float64, len(n.Resonators))
	for _, h := range Hotspots(n, p) {
		if h.EdgeI >= 0 {
			out[h.EdgeI] += h.Weight
		}
		if h.EdgeJ >= 0 {
			out[h.EdgeJ] += h.Weight
		}
	}
	return out
}

// QubitViolationPairs returns the qubit pairs violating the quantum
// minimum-spacing constraint; these pairs behave like directly
// capacitively-coupled qubits in the fidelity model (ε_g of Eq. 8).
type Violation struct {
	I, J      int
	Gap       float64
	SharedLen float64
}

// QubitViolationPairs lists qubit pairs closer than MinQubitSpacing.
func QubitViolationPairs(n *netlist.Netlist, p Params) []Violation {
	var out []Violation
	for i := range n.Qubits {
		ri := n.Qubits[i].Rect()
		for j := i + 1; j < len(n.Qubits); j++ {
			rj := n.Qubits[j].Rect()
			gap := ri.Gap(rj)
			if gap < p.MinQubitSpacing-geom.Eps {
				out = append(out, Violation{
					I: i, J: j, Gap: gap, SharedLen: ri.SharedLength(rj),
				})
			}
		}
	}
	return out
}

// CrossingCount returns X: the number of proper crossings between the
// routes of different resonators. Every crossing requires an airbridge
// whose ~3.5 fF parasitic capacitance couples the two resonators.
func CrossingCount(n *netlist.Netlist) int {
	return len(CrossingPairs(n))
}

// CrossPoint records one resonator-route crossing.
type CrossPoint struct {
	EdgeI, EdgeJ int
}

// CrossingPairs lists every route crossing (one entry per crossing
// point, so two routes crossing twice contribute two entries).
func CrossingPairs(n *netlist.Netlist) []CrossPoint {
	return CrossingPairsPar(n, nil, 0)
}

// crossScratch holds the pooled buffers of the sharded crossing scan.
type crossScratch struct {
	routes []geom.Polyline
	boxes  []geom.Rect
	bounds []int
	shards [][]CrossPoint
}

var crossPool = sync.Pool{New: func() any { return new(crossScratch) }}

// CrossingPairsPar is CrossingPairs with the O(E²) pair sweep sharded
// over lanes from the given parallelism budget (nil: the process-wide
// default; laneCap 0: GOMAXPROCS). Shards cover contiguous primary
// ranges balanced by pair count, each shard collects its crossings in
// scan order, and the shards are concatenated in shard order — the
// output is identical, entry for entry, to the serial scan for every
// lane count.
func CrossingPairsPar(n *netlist.Netlist, b *parallel.Budget, laneCap int) []CrossPoint {
	m := len(n.Resonators)
	s := crossPool.Get().(*crossScratch)
	defer func() {
		clear(s.routes) // do not retain route geometry in the pool
		crossPool.Put(s)
	}()
	if cap(s.routes) < m {
		s.routes = make([]geom.Polyline, m)
		s.boxes = make([]geom.Rect, m)
	}
	s.routes = s.routes[:m]
	s.boxes = s.boxes[:m]
	for e := 0; e < m; e++ {
		s.routes[e] = n.Route(e)
		s.boxes[e] = s.routes[e].BBox()
	}

	if laneCap <= 0 {
		laneCap = runtime.GOMAXPROCS(0)
	}
	grant := b.Acquire(laneCap)
	defer grant.Release()
	lanes := grant.Lanes()
	if lanes > m {
		lanes = m
	}

	if lanes <= 1 {
		var out []CrossPoint
		for i := 0; i < m; i++ {
			out = scanPrimary(s, i, out)
		}
		return out
	}

	// Contiguous primary shards, balanced by the triangular pair count
	// so late (short) rows don't starve the last lanes.
	s.bounds = s.bounds[:0]
	s.bounds = append(s.bounds, 0)
	total := m * (m - 1) / 2
	acc, nextCut := 0, (total+lanes-1)/lanes
	for i := 0; i < m && len(s.bounds) < lanes; i++ {
		acc += m - 1 - i
		if acc >= nextCut*len(s.bounds) {
			s.bounds = append(s.bounds, i+1)
		}
	}
	for len(s.bounds) < lanes+1 {
		s.bounds = append(s.bounds, m)
	}
	for len(s.shards) < lanes {
		s.shards = append(s.shards, nil)
	}
	bounds := s.bounds
	grant.Run(lanes, func(lane int) {
		buf := s.shards[lane][:0]
		for i := bounds[lane]; i < bounds[lane+1]; i++ {
			buf = scanPrimary(s, i, buf)
		}
		s.shards[lane] = buf
	})

	// Deterministic reduction: concatenate in shard order (ascending
	// primary), reproducing the serial output exactly.
	total = 0
	for lane := 0; lane < lanes; lane++ {
		total += len(s.shards[lane])
	}
	out := make([]CrossPoint, 0, total)
	for lane := 0; lane < lanes; lane++ {
		out = append(out, s.shards[lane]...)
	}
	return out
}

// scanPrimary appends the crossings of primary route i with every
// later route to dst, in the canonical j order.
func scanPrimary(s *crossScratch, i int, dst []CrossPoint) []CrossPoint {
	for j := i + 1; j < len(s.routes); j++ {
		if !s.boxes[i].Touches(s.boxes[j]) {
			continue
		}
		for k := 0; k < geom.CrossCount(s.routes[i], s.routes[j]); k++ {
			dst = append(dst, CrossPoint{EdgeI: i, EdgeJ: j})
		}
	}
	return dst
}
