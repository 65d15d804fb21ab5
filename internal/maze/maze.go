// Package maze is the grid maze router used by the detailed placer
// (Algorithm 2): breadth-first search over unit cells with obstacles,
// multi-source/multi-target, plus a path-thickening pass that grows a
// shortest path into a connected region of exactly n cells — the shape a
// re-placed resonator's wire blocks occupy.
//
// Route and Thicken are the inner loop of detailed placement, so a Grid
// carries epoch-stamped visit/target/selection arrays and reusable
// queue, path, and output buffers: after the first call on a grid,
// routing allocates nothing. Returned cell slices are owned by the Grid
// and remain valid only until its next Route/Thicken call; callers that
// need to keep a result must copy it.
//
// A Grid also supports a routing window (SetWindow): cells outside the
// window behave exactly as if they were blocked. The detailed placer
// uses this to restrict each rip-up to its problem window without
// rebuilding or mass-blocking the grid per candidate.
package maze

import (
	"math"
	"time"

	"repro/internal/kernstats"
)

// Cell is a unit grid cell.
type Cell struct {
	X, Y int
}

// Grid is a routing grid with blocked cells.
type Grid struct {
	w, h    int
	blocked []bool

	// Routing window; cells outside are unroutable. Defaults to the
	// whole grid.
	wx0, wy0, wx1, wy1 int

	// Epoch-stamped scratch: entry i is valid for the current operation
	// iff its stamp equals the grid's epoch, so clearing between calls
	// is a single counter increment.
	epoch    int32
	visited  []int32 // BFS visit stamps (parent validity)
	parent   []int32 // BFS parent cell index; self for roots
	target   []int32 // target-set stamps
	selected []int32 // Thicken selection stamps

	queue []int32 // reusable BFS FIFO
	path  []Cell  // reusable Route result buffer
	out   []Cell  // reusable Thicken result buffer
}

// NewGrid returns a w×h grid with all cells routable.
func NewGrid(w, h int) *Grid {
	return &Grid{
		w: w, h: h,
		blocked:  make([]bool, w*h),
		wx1:      w,
		wy1:      h,
		visited:  make([]int32, w*h),
		parent:   make([]int32, w*h),
		target:   make([]int32, w*h),
		selected: make([]int32, w*h),
	}
}

// W returns the grid width.
func (g *Grid) W() int { return g.w }

// H returns the grid height.
func (g *Grid) H() int { return g.h }

// InBounds reports whether c is a valid cell.
func (g *Grid) InBounds(c Cell) bool {
	return c.X >= 0 && c.X < g.w && c.Y >= 0 && c.Y < g.h
}

func (g *Grid) idx(c Cell) int { return c.Y*g.w + c.X }

// SetWindow restricts routing to the half-open cell rectangle
// [x0, x1) × [y0, y1): cells outside it report Blocked until the window
// is reset. The window is clipped to the grid.
func (g *Grid) SetWindow(x0, y0, x1, y1 int) {
	g.wx0, g.wy0 = max(x0, 0), max(y0, 0)
	g.wx1, g.wy1 = min(x1, g.w), min(y1, g.h)
}

// ClearWindow restores routing over the whole grid.
func (g *Grid) ClearWindow() {
	g.wx0, g.wy0, g.wx1, g.wy1 = 0, 0, g.w, g.h
}

// Block marks a cell unroutable. Out-of-bounds cells are ignored (they
// are implicitly blocked).
func (g *Grid) Block(c Cell) {
	if g.InBounds(c) {
		g.blocked[g.idx(c)] = true
	}
}

// Unblock marks a cell routable again.
func (g *Grid) Unblock(c Cell) {
	if g.InBounds(c) {
		g.blocked[g.idx(c)] = false
	}
}

// Blocked reports whether c is unroutable: out-of-bounds and
// outside-the-window cells count as blocked.
func (g *Grid) Blocked(c Cell) bool {
	if c.X < g.wx0 || c.X >= g.wx1 || c.Y < g.wy0 || c.Y >= g.wy1 {
		return true
	}
	return g.blocked[g.idx(c)]
}

// nextEpoch advances the scratch epoch, clearing the stamp arrays on the
// (practically unreachable) counter wrap.
func (g *Grid) nextEpoch() int32 {
	g.epoch++
	if g.epoch == math.MaxInt32 {
		for i := range g.visited {
			g.visited[i] = 0
			g.target[i] = 0
			g.selected[i] = 0
		}
		g.epoch = 1
	}
	return g.epoch
}

// neighbor order is fixed (E, W, N, S) for determinism.
var dirs = [4]Cell{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// Route returns a shortest 4-connected path from any source to any
// target over unblocked cells, or nil when no path exists. Sources and
// targets must themselves be unblocked to be usable; blocked and
// duplicate entries are skipped. The returned slice is owned by the
// Grid: it is valid until the next Route or Thicken call.
func (g *Grid) Route(sources, targets []Cell) []Cell {
	start := time.Now()
	defer func() { kernstats.MazeRoute.Observe(time.Since(start)) }()
	if len(sources) == 0 || len(targets) == 0 {
		return nil
	}
	epoch := g.nextEpoch()
	targeted := 0
	for _, t := range targets {
		if g.Blocked(t) {
			continue
		}
		if ti := g.idx(t); g.target[ti] != epoch {
			g.target[ti] = epoch
			targeted++
		}
	}
	if targeted == 0 {
		return nil
	}
	queue := g.queue[:0]
	for _, s := range sources {
		if g.Blocked(s) {
			continue
		}
		si := g.idx(s)
		if g.visited[si] == epoch {
			continue
		}
		g.visited[si] = epoch
		g.parent[si] = int32(si) // root marks itself
		queue = append(queue, int32(si))
	}
	for head := 0; head < len(queue); head++ {
		ci := int(queue[head])
		if g.target[ci] == epoch {
			g.queue = queue
			return g.tracePath(ci)
		}
		cx, cy := ci%g.w, ci/g.w
		for _, d := range dirs {
			nc := Cell{cx + d.X, cy + d.Y}
			if g.Blocked(nc) {
				continue
			}
			ni := g.idx(nc)
			if g.visited[ni] == epoch {
				continue
			}
			g.visited[ni] = epoch
			g.parent[ni] = int32(ci)
			queue = append(queue, int32(ni))
		}
	}
	g.queue = queue
	return nil
}

// tracePath reconstructs the source→target path ending at cell index
// end into the grid's reusable path buffer.
func (g *Grid) tracePath(end int) []Cell {
	rev := g.path[:0]
	ci := end
	for {
		rev = append(rev, Cell{ci % g.w, ci / g.w})
		if int(g.parent[ci]) == ci {
			break
		}
		ci = int(g.parent[ci])
	}
	// Reverse to source→target order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	g.path = rev
	return rev
}

// Thicken grows path into a connected set of exactly n unblocked cells:
// the path first, then BFS layers around it (deterministic order). It
// returns nil when fewer than n connected free cells are reachable. The
// returned order starts at the path's source end, so assigning wire
// blocks in order yields a chain-friendly route. Cells in the result are
// not blocked by this call; the caller commits them. Like Route, the
// returned slice is owned by the Grid and valid until its next call.
func (g *Grid) Thicken(path []Cell, n int) []Cell {
	if len(path) == 0 || n <= 0 {
		return nil
	}
	if len(path) >= n {
		return path[:n]
	}
	epoch := g.nextEpoch()
	out := g.out[:0]
	push := func(c Cell) bool {
		if g.Blocked(c) {
			return false
		}
		ci := g.idx(c)
		if g.selected[ci] == epoch {
			return false
		}
		g.selected[ci] = epoch
		out = append(out, c)
		return true
	}
	for _, c := range path {
		if !push(c) {
			g.out = out
			return nil // path must be free
		}
	}
	for head := 0; head < len(out) && len(out) < n; head++ {
		for _, d := range dirs {
			nc := Cell{out[head].X + d.X, out[head].Y + d.Y}
			push(nc)
			if len(out) == n {
				break
			}
		}
	}
	g.out = out
	if len(out) < n {
		return nil
	}
	return out
}

// Adjacent returns the unblocked cells 4-adjacent to the rectangle of
// cells [x0,x1) × [y0,y1): the candidate route entry/exit cells around a
// qubit macro footprint. The result is freshly allocated; hot paths
// should use AppendAdjacent with a reused buffer.
func (g *Grid) Adjacent(x0, y0, x1, y1 int) []Cell {
	return g.AppendAdjacent(nil, x0, y0, x1, y1)
}

// AppendAdjacent appends the unblocked cells 4-adjacent to the rectangle
// [x0,x1) × [y0,y1) to dst and returns it.
func (g *Grid) AppendAdjacent(dst []Cell, x0, y0, x1, y1 int) []Cell {
	for x := x0; x < x1; x++ {
		for _, c := range [2]Cell{{x, y0 - 1}, {x, y1}} {
			if !g.Blocked(c) {
				dst = append(dst, c)
			}
		}
	}
	for y := y0; y < y1; y++ {
		for _, c := range [2]Cell{{x0 - 1, y}, {x1, y}} {
			if !g.Blocked(c) {
				dst = append(dst, c)
			}
		}
	}
	return dst
}
