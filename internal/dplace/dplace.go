// Package dplace is qGDP-DP, the detailed placement engine of §III-E
// (Algorithm 2): it scans the legalized layout for problem resonators —
// non-unified (|C_e| > 1), hotspot-involved (H_e > 0), or crossing
// another resonator's route — builds a focused window around each,
// extracts the window's resonators, re-places them with maze routing,
// and keeps the new positions only when the window's cluster count,
// hotspot weight, and crossing count have not regressed (with at least
// one strict improvement).
//
// The engine maintains one routing grid for the whole refinement run and
// mutates it incrementally — rip-ups and placements apply block/unblock
// deltas through a per-cell occupancy count, and the per-candidate
// restriction to the problem window is a maze.Grid window instead of a
// mass-block of every outside cell. Resonator routes and their bounding
// boxes are cached and invalidated only for the resonators a window
// touches. Group selection measures block distances only to resonators
// whose route box lies within reach of the problem resonator's; the
// hotspot objective scans only the wire blocks in the 3×3 bucket
// neighborhood of the group's blocks; and the crossing objective tests
// only pairs with an end in the group. A candidate therefore costs work
// proportional to its neighborhood rather than to the whole layout. The
// accepted layouts are identical to the rebuild-per-candidate reference
// placer.
//
// Windows are refined one at a time in candidate order: each window's
// evaluation reads the layout every earlier accepted move left behind,
// which is what Algorithm 2's worst-first scan prescribes.
package dplace

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/kernstats"
	"repro/internal/maze"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Params tunes the detailed placer.
type Params struct {
	// Metrics are the hotspot thresholds shared with the evaluation.
	Metrics metrics.Params
	// WindowMargin expands the problem window (cells).
	WindowMargin int
	// MaxAdjacent caps how many neighbor resonators join a window.
	MaxAdjacent int
	// MaxPasses bounds the scan-and-fix iterations.
	MaxPasses int
	// Obs is the span refinement passes hang under (stamped by
	// core.Legalize from the request trace); nil disables tracing.
	// Excluded from request hashing.
	Obs *obs.Span `json:"-"`
	// Cancel, when non-nil and closed, aborts refinement before the
	// next window: Refine returns context.Canceled and the netlist is
	// left mid-refinement (the caller must discard it). A blown request
	// deadline therefore costs at most one window of work. Stamped per
	// call like Obs; excluded from request hashing.
	Cancel <-chan struct{} `json:"-"`
}

// DefaultParams mirrors the evaluation setup.
func DefaultParams() Params {
	return Params{
		Metrics:      metrics.DefaultParams(),
		WindowMargin: 2,
		MaxAdjacent:  3,
		MaxPasses:    3,
	}
}

// Result reports what the detailed placer did.
type Result struct {
	// Considered counts candidate windows examined.
	Considered int
	// Accepted counts windows whose re-placement was kept.
	Accepted int
	// Passes is the number of full scans performed.
	Passes int
}

// Refine runs Algorithm 2 on a legalized netlist, mutating wire-block
// positions in place. Qubits never move.
func Refine(n *netlist.Netlist, p Params) (Result, error) {
	return refine(n, p, nil)
}

// RefineRegion is Refine restricted to the dirty regions of a delta
// repair: only resonators whose cached route bounding box touches a
// region are admitted as candidate windows. Window groups may still
// pull in adjacent resonators from outside the regions (a window must
// see its true neighborhood to reject regressions), so the repair
// remains exact within each window — the restriction only skips scans
// of provably-untouched parts of the layout.
func RefineRegion(n *netlist.Netlist, p Params, regions []geom.Rect) (Result, error) {
	return refine(n, p, regions)
}

func refine(n *netlist.Netlist, p Params, regions []geom.Rect) (Result, error) {
	start := time.Now()
	defer func() { kernstats.DPRefine.Observe(time.Since(start)) }()

	r := newRefiner(n, p)
	r.regions = regions

	var res Result
	for pass := 0; pass < p.MaxPasses; pass++ {
		if cancelled(p.Cancel) {
			return res, context.Canceled
		}
		res.Passes = pass + 1
		ps := p.Obs.Child("dplace.pass")
		cands := r.candidates()
		res.Considered += len(cands)
		kernstats.DPSerialWindows.Add(int64(len(cands)))
		accepted := 0
		for _, e := range cands {
			if cancelled(p.Cancel) {
				ps.End()
				return res, context.Canceled
			}
			if r.refineWindow(e) {
				accepted++
			}
		}
		ps.AttrInt("windows", int64(len(cands)))
		ps.AttrInt("accepted", int64(accepted))
		ps.End()
		res.Accepted += accepted
		if accepted == 0 {
			break
		}
	}
	return res, nil
}

// cancelled reports whether the cancel channel is closed (nil: never).
func cancelled(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// refiner carries the persistent state of one Refine run: the
// incrementally-mutated routing grid, the per-cell block occupancy, and
// the route cache.
type refiner struct {
	n *netlist.Netlist
	p Params

	g      *maze.Grid
	w, h   int
	static []bool  // qubit-footprint cells, never unblocked
	occ    []int32 // wire blocks per cell; >0 means blocked

	routes []geom.Polyline // cached n.Route(e); nil = recompute
	boxes  []geom.Rect     // bounding boxes of the cached routes

	// regions, when non-nil, restricts the candidate scan to resonators
	// whose route box touches one of the rects (the delta fast path).
	regions []geom.Rect

	inGroup []bool

	// Per-window scratch.
	savedID  []int
	savedPos []geom.Pt
	placed   []maze.Cell
	srcs     []maze.Cell
	dsts     []maze.Cell
	crossing []int
	nears    []near
}

func newRefiner(n *netlist.Netlist, p Params) *refiner {
	w := int(math.Round(n.W))
	h := int(math.Round(n.H))
	r := &refiner{
		n: n, p: p, w: w, h: h,
		g:        maze.NewGrid(w, h),
		static:   make([]bool, w*h),
		occ:      make([]int32, w*h),
		routes:   make([]geom.Polyline, len(n.Resonators)),
		boxes:    make([]geom.Rect, len(n.Resonators)),
		inGroup:  make([]bool, len(n.Resonators)),
		crossing: make([]int, len(n.Resonators)),
	}
	// Qubit macros are permanent obstacles.
	for qi := range n.Qubits {
		rect := n.Qubits[qi].Rect()
		x0 := int(math.Floor(rect.MinX() + geom.Eps))
		y0 := int(math.Floor(rect.MinY() + geom.Eps))
		x1 := int(math.Ceil(rect.MaxX() - geom.Eps))
		y1 := int(math.Ceil(rect.MaxY() - geom.Eps))
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				c := maze.Cell{X: x, Y: y}
				if r.g.InBounds(c) {
					r.static[y*w+x] = true
					r.g.Block(c)
				}
			}
		}
	}
	// Every wire block occupies its cell.
	for i := range n.Blocks {
		r.occupy(cellOf(n.Blocks[i].Pos))
	}
	return r
}

// occupy adds one block to a cell, blocking it on the 0 -> 1 edge.
// Out-of-bounds cells are ignored (they are implicitly blocked).
func (r *refiner) occupy(c maze.Cell) {
	if !r.g.InBounds(c) {
		return
	}
	i := c.Y*r.w + c.X
	r.occ[i]++
	if r.occ[i] == 1 {
		r.g.Block(c)
	}
}

// vacate removes one block from a cell, unblocking it on the 1 -> 0 edge
// unless a qubit footprint pins it.
func (r *refiner) vacate(c maze.Cell) {
	if !r.g.InBounds(c) {
		return
	}
	i := c.Y*r.w + c.X
	r.occ[i]--
	if r.occ[i] == 0 && !r.static[i] {
		r.g.Unblock(c)
	}
}

// route returns resonator e's cached routing polyline, recomputing it
// after an invalidation.
func (r *refiner) route(e int) geom.Polyline {
	if r.routes[e] == nil {
		r.routes[e] = r.n.Route(e)
		r.boxes[e] = r.routes[e].BBox()
	}
	return r.routes[e]
}

func (r *refiner) invalidateRoutes(group []int) {
	for _, e := range group {
		r.routes[e] = nil
	}
}

// candidates returns the resonators violating a quality objective:
// E_c (non-unified), E_h (hotspots), and crossing participants, ordered
// worst-first (cluster count, then crossings, then hotspot weight, then
// ID).
func (r *refiner) candidates() []int {
	n := r.n
	hot := metrics.ResonatorHotspotAll(n, r.p.Metrics)
	crossing := r.crossing
	for e := range crossing {
		crossing[e] = 0
	}
	for i := range n.Resonators {
		r.route(i)
	}
	for i := range n.Resonators {
		for j := i + 1; j < len(n.Resonators); j++ {
			if !r.boxes[i].Touches(r.boxes[j]) {
				continue
			}
			if c := geom.CrossCount(r.routes[i], r.routes[j]); c > 0 {
				crossing[i] += c
				crossing[j] += c
			}
		}
	}
	type cand struct {
		e        int
		clusters int
		hot      float64
		crosses  int
	}
	var cs []cand
	for e := range n.Resonators {
		if !r.inRegions(e) {
			continue
		}
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

// inRegions reports whether resonator e passes the region filter (a
// nil filter admits everything). Callers ensure e's route is cached.
func (r *refiner) inRegions(e int) bool {
	if r.regions == nil {
		return true
	}
	for _, reg := range r.regions {
		if reg.Touches(r.boxes[e]) {
			return true
		}
	}
	return false
}

// windowObjective is the Algorithm-2 acceptance triple, restricted to
// the window's resonators.
type windowObjective struct {
	clusters  int
	hotspots  float64
	crossings int
}

func (a windowObjective) betterThan(b windowObjective) bool {
	const eps = 1e-9
	if a.clusters > b.clusters || a.hotspots > b.hotspots+eps || a.crossings > b.crossings {
		return false
	}
	return a.clusters < b.clusters || a.hotspots < b.hotspots-eps || a.crossings < b.crossings
}

// refineWindow attempts one window rip-up/re-place; reports acceptance.
func (r *refiner) refineWindow(e int) bool {
	n := r.n
	group := r.windowGroup(e)
	win := r.windowRect(group)
	for _, ge := range group {
		r.inGroup[ge] = true
	}
	defer func() {
		for _, ge := range group {
			r.inGroup[ge] = false
		}
	}()

	before := r.measure(group)

	// Snapshot for revert, and rip up the group's cells.
	r.savedID = r.savedID[:0]
	r.savedPos = r.savedPos[:0]
	for _, ge := range group {
		for _, id := range n.Resonators[ge].Blocks {
			r.savedID = append(r.savedID, id)
			r.savedPos = append(r.savedPos, n.Blocks[id].Pos)
			r.vacate(cellOf(n.Blocks[id].Pos))
		}
	}

	// Restrict routing to the window.
	x0 := int(math.Floor(win.MinX() + geom.Eps))
	y0 := int(math.Floor(win.MinY() + geom.Eps))
	x1 := int(math.Ceil(win.MaxX() - geom.Eps))
	y1 := int(math.Ceil(win.MaxY() - geom.Eps))
	r.g.SetWindow(x0, y0, x1, y1)

	// Re-place each group resonator: the problem resonator first, then
	// neighbors in group order.
	r.placed = r.placed[:0]
	ok := true
	for _, ge := range group {
		if !r.routeResonator(ge) {
			ok = false
			break
		}
	}
	r.g.ClearWindow()
	r.invalidateRoutes(group)

	if !ok {
		r.revert()
		return false
	}
	after := r.measure(group)
	if !after.betterThan(before) {
		r.revert()
		r.invalidateRoutes(group)
		return false
	}
	return true
}

// revert restores the snapshot positions and the matching occupancy.
func (r *refiner) revert() {
	for _, c := range r.placed {
		r.vacate(c)
	}
	for i, id := range r.savedID {
		r.n.Blocks[id].Pos = r.savedPos[i]
		r.occupy(cellOf(r.savedPos[i]))
	}
}

// near is one candidate adjacent resonator during group selection.
type near struct {
	e int
	d float64
}

// windowGroup returns e plus up to MaxAdjacent resonators whose blocks
// lie nearest to e's blocks (the "adjacent resonators" of Fig. 7).
//
// Only resonators whose cached route box lies within reach of e's are
// measured. A route passes through every block center, so its box bounds
// them all, and a center distance (math.Hypot) is never below its larger
// axis component: a resonator whose box is farther than the cutoff from
// e's along either axis has no block pair within the cutoff. The geom.Eps
// slack absorbs the rounding of the center/size form of the boxes.
func (r *refiner) windowGroup(e int) []int {
	n := r.n
	cutoff := float64(r.p.WindowMargin) + 1
	r.route(e)
	be := r.boxes[e]
	nears := r.nears[:0]
	for o := range n.Resonators {
		if o == e {
			continue
		}
		r.route(o)
		if axisGap(be, r.boxes[o]) > cutoff+geom.Eps {
			continue
		}
		d := resonatorDistance(n, e, o)
		if d <= cutoff {
			nears = append(nears, near{o, d})
		}
	}
	r.nears = nears
	sort.Slice(nears, func(i, j int) bool {
		if nears[i].d != nears[j].d {
			return nears[i].d < nears[j].d
		}
		return nears[i].e < nears[j].e
	})
	group := []int{e}
	for _, nr := range nears {
		if len(group) > r.p.MaxAdjacent {
			break
		}
		group = append(group, nr.e)
	}
	return group
}

// axisGap is the larger of the x and y separations of a and b (0 when
// their projections overlap on both axes).
func axisGap(a, b geom.Rect) float64 {
	dx := math.Max(b.MinX()-a.MaxX(), a.MinX()-b.MaxX())
	dy := math.Max(b.MinY()-a.MaxY(), a.MinY()-b.MaxY())
	return math.Max(0, math.Max(dx, dy))
}

// resonatorDistance is the minimum block-to-block center distance.
func resonatorDistance(n *netlist.Netlist, a, b int) float64 {
	best := math.Inf(1)
	for _, ia := range n.Resonators[a].Blocks {
		pa := n.Blocks[ia].Pos
		for _, ib := range n.Resonators[b].Blocks {
			if d := pa.Dist(n.Blocks[ib].Pos); d < best {
				best = d
			}
		}
	}
	return best
}

// windowRect is the bounding box of the group's blocks and endpoint
// qubits, expanded by the margin and clipped to the substrate.
func (r *refiner) windowRect(group []int) geom.Rect {
	n := r.n
	first := true
	var box geom.Rect
	add := func(rc geom.Rect) {
		if first {
			box = rc
			first = false
		} else {
			box = box.Union(rc)
		}
	}
	for _, e := range group {
		res := &n.Resonators[e]
		add(n.Qubits[res.Q1].Rect())
		add(n.Qubits[res.Q2].Rect())
		for _, id := range res.Blocks {
			add(n.BlockRect(id))
		}
	}
	box = box.Expand(float64(r.p.WindowMargin))
	// Clip to substrate.
	minX := math.Max(0, box.MinX())
	maxX := math.Min(n.W, box.MaxX())
	minY := math.Max(0, box.MinY())
	maxY := math.Min(n.H, box.MaxY())
	return geom.NewRect((minX+maxX)/2, (minY+maxY)/2, maxX-minX, maxY-minY)
}

// measure computes the acceptance objective for the group: cluster
// counts over the group, plus the group-restricted hotspot weight and
// route-crossing count. The values match the full-layout metrics
// filtered to the group, term for term.
func (r *refiner) measure(group []int) windowObjective {
	n := r.n
	var o windowObjective
	for _, e := range group {
		o.clusters += n.ClusterCount(e)
	}
	o.hotspots = metrics.GroupHotspotWeight(n, r.p.Metrics, r.inGroup)
	// Crossings of every pair with an end in the group; a pair with both
	// ends in the group is counted from its lower end only. The sum is an
	// integer, so the visiting order does not matter.
	for _, g := range group {
		r.route(g)
		for k := range n.Resonators {
			if k == g || (r.inGroup[k] && k < g) {
				continue
			}
			r.route(k)
			i, j := min(g, k), max(g, k)
			if !r.boxes[i].Touches(r.boxes[j]) {
				continue
			}
			o.crossings += geom.CrossCount(r.routes[i], r.routes[j])
		}
	}
	return o
}

// routeResonator maze-routes resonator e between its endpoint qubits and
// assigns its wire blocks along the (thickened) path, committing each
// cell to the occupancy grid.
func (r *refiner) routeResonator(e int) bool {
	n := r.n
	res := &n.Resonators[e]
	r.srcs = r.appendQubitAdjacent(r.srcs[:0], res.Q1)
	r.dsts = r.appendQubitAdjacent(r.dsts[:0], res.Q2)
	path := r.g.Route(r.srcs, r.dsts)
	if path == nil {
		return false
	}
	cells := r.g.Thicken(path, len(res.Blocks))
	if cells == nil {
		return false
	}
	for i, id := range res.Blocks {
		c := cells[i]
		n.Blocks[id].Pos = geom.Pt{X: float64(c.X) + 0.5, Y: float64(c.Y) + 0.5}
		r.occupy(c)
		r.placed = append(r.placed, c)
	}
	return true
}

func (r *refiner) appendQubitAdjacent(dst []maze.Cell, q int) []maze.Cell {
	rect := r.n.Qubits[q].Rect()
	x0 := int(math.Floor(rect.MinX() + geom.Eps))
	y0 := int(math.Floor(rect.MinY() + geom.Eps))
	x1 := int(math.Ceil(rect.MaxX() - geom.Eps))
	y1 := int(math.Ceil(rect.MaxY() - geom.Eps))
	return r.g.AppendAdjacent(dst, x0, y0, x1, y1)
}

func cellOf(p geom.Pt) maze.Cell {
	return maze.Cell{X: int(math.Floor(p.X)), Y: int(math.Floor(p.Y))}
}
