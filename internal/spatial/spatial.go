// Package spatial provides a reusable, allocation-free uniform bucket
// grid for near-neighbor queries over 2-D points.
//
// It replaces the `map[[2]int][]int` spatial hashes that the hot kernels
// (gplace repulsion, metrics hotspot enumeration) used to rebuild on
// every call: a counting-sort pass over flat int32 arrays produces the
// same buckets — items grouped by truncated cell key, in ascending item
// order within each bucket — without a single heap allocation once the
// grid's scratch buffers have warmed up.
//
// Bucket membership intentionally reproduces the map-hash semantics
// exactly, including Go's truncation-toward-zero of `int(coord / cell)`
// for the (rare) slightly-negative coordinates a jittered placement can
// produce, so callers that iterate buckets in a fixed key order observe
// the identical item sequence the map version produced.
package spatial

// Grid is a flat bucket grid. The zero value is ready to use; Build may
// be called any number of times, reusing the internal buffers.
type Grid struct {
	cell         float64
	minKx, minKy int
	nx, ny       int
	n            int

	keys   []int32 // flat bucket key per item
	starts []int32 // bucket -> first index into order (len nx*ny+1)
	cursor []int32 // scatter cursors (len nx*ny)
	order  []int32 // item indices grouped by bucket, ascending within
}

// Build indexes n points into buckets of the given cell size. The xy
// callback must return the coordinates of item i; it is invoked exactly
// once per item.
func (g *Grid) Build(cell float64, n int, xy func(i int) (x, y float64)) {
	g.cell = cell
	g.n = n
	if cap(g.keys) < n {
		g.keys = make([]int32, n)
		g.order = make([]int32, n)
	}
	g.keys = g.keys[:n]
	g.order = g.order[:n]
	if n == 0 {
		g.nx, g.ny = 0, 0
		return
	}

	// Pass 1: per-item cell keys and the key bounding box. Keys use the
	// same truncating conversion the map hash used.
	minKx, maxKx := int(^uint(0)>>1), -int(^uint(0)>>1)-1
	minKy, maxKy := minKx, maxKx
	for i := 0; i < n; i++ {
		x, y := xy(i)
		kx, ky := int(x/cell), int(y/cell)
		if kx < minKx {
			minKx = kx
		}
		if kx > maxKx {
			maxKx = kx
		}
		if ky < minKy {
			minKy = ky
		}
		if ky > maxKy {
			maxKy = ky
		}
		// Stash raw keys; flattened below once the bounds are known.
		g.keys[i] = int32(kx)
		g.order[i] = int32(ky)
	}
	g.minKx, g.minKy = minKx, minKy
	g.nx, g.ny = maxKx-minKx+1, maxKy-minKy+1

	nb := g.nx * g.ny
	if cap(g.starts) < nb+1 {
		g.starts = make([]int32, nb+1)
		g.cursor = make([]int32, nb)
	}
	g.starts = g.starts[:nb+1]
	g.cursor = g.cursor[:nb]
	for i := range g.starts {
		g.starts[i] = 0
	}

	// Pass 2: counting sort. starts[k+1] first holds the bucket size,
	// then the prefix sum turns it into start offsets.
	for i := 0; i < n; i++ {
		k := int32(int(g.keys[i])-minKx) + int32(g.nx)*int32(int(g.order[i])-minKy)
		g.keys[i] = k
		g.starts[k+1]++
	}
	for k := 0; k < nb; k++ {
		g.starts[k+1] += g.starts[k]
		g.cursor[k] = g.starts[k]
	}
	for i := 0; i < n; i++ {
		k := g.keys[i]
		g.order[g.cursor[k]] = int32(i)
		g.cursor[k]++
	}
}

// Key returns the cell key of a coordinate pair under the grid's cell
// size (truncating conversion, matching Build).
func (g *Grid) Key(x, y float64) (kx, ky int) {
	return int(x / g.cell), int(y / g.cell)
}

// Bucket returns the item indices whose key is (kx, ky), in ascending
// item order, or nil when the bucket is empty or out of range. The
// returned slice aliases the grid's scratch and is valid until the next
// Build.
func (g *Grid) Bucket(kx, ky int) []int32 {
	bx, by := kx-g.minKx, ky-g.minKy
	if bx < 0 || bx >= g.nx || by < 0 || by >= g.ny {
		return nil
	}
	k := bx + g.nx*by
	return g.order[g.starts[k]:g.starts[k+1]]
}
