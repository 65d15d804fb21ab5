// Incremental layout repair: given a fully-legalized base layout and a
// canonical edit list (package topology), produce the edited layout by
// repairing the dirty region instead of re-running the cold pipeline.
//
// A frozen-footprint argument makes the fast path sound: qubits never
// move during resonator legalization or detailed placement, edits that
// only REMOVE hardware (dropouts) only free space, and the dplace
// acceptance rule rejects any window move that regresses its group
// objective — so a repair confined to the dirty windows cannot disturb,
// or be disturbed by, the untouched rest of the layout. Edits that invalidate global structure (a substrate
// resize) instead warm-start the force-directed placer from the base
// positions and re-run the full legalization chain, which is still far
// cheaper than a cold run because the placement starts near its fixed
// point.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dplace"
	"repro/internal/geom"
	"repro/internal/gplace"
	"repro/internal/netlist"
	"repro/internal/qlegal"
	"repro/internal/reslegal"
	"repro/internal/topology"
)

// dirtyMargin expands every dirty rect (layout cells): it covers the
// dplace window expansion plus one ring of adjacency, so a repair
// window anchored inside the rect cannot read state the region filter
// hid from the candidate scan.
const dirtyMargin = 3.0

// warmIterations is the reduced force-iteration budget of a warm
// start: the base placement is already near the force fixed point, so
// a quarter of the cold schedule (floored at 30) re-converges it.
func warmIterations(full int) int {
	it := full / 4
	if it < 30 {
		it = 30
	}
	return it
}

// clipRect clips box to the substrate of n.
func clipRect(box geom.Rect, n *netlist.Netlist) geom.Rect {
	minX := math.Max(0, box.MinX())
	maxX := math.Min(n.W, box.MaxX())
	minY := math.Max(0, box.MinY())
	maxY := math.Min(n.H, box.MaxY())
	return geom.NewRect((minX+maxX)/2, (minY+maxY)/2, maxX-minX, maxY-minY)
}

// applyNetlistEdits applies a canonical edit list to n (a clone of the
// base layout's netlist) in place and returns the dirty regions the
// edit implies, expanded by dirtyMargin and clipped to the substrate.
// warm reports that the edit invalidates global structure (resize) and
// the caller must warm-start instead of taking the fast path. All edit
// indices are in the BASE numbering; structural removals renumber the
// netlist afterward exactly like topology.ApplyEdits renumbers the
// device.
func applyNetlistEdits(n *netlist.Netlist, edits []topology.Edit) (dirty []geom.Rect, warm bool, err error) {
	removedQ := map[int]bool{}
	removedC := map[[2]int]bool{}
	for _, e := range edits {
		switch e.Op {
		case topology.EditRetune:
			if e.Qubit < 0 || e.Qubit >= len(n.Qubits) {
				return nil, false, fmt.Errorf("retune: qubit %d out of range", e.Qubit)
			}
			n.Qubits[e.Qubit].Freq = e.Freq
			// A retune can create or dissolve hotspots anywhere near the
			// qubit and its resonators.
			dirty = append(dirty, n.Qubits[e.Qubit].Rect())
			for i := range n.Resonators {
				r := &n.Resonators[i]
				if r.Q1 == e.Qubit || r.Q2 == e.Qubit {
					dirty = append(dirty, n.Route(i).BBox())
				}
			}
		case topology.EditResize:
			n.W, n.H = e.W, e.H
			warm = true
		case topology.EditDisableQubit:
			if e.Qubit < 0 || e.Qubit >= len(n.Qubits) {
				return nil, false, fmt.Errorf("disable_qubit: qubit %d out of range", e.Qubit)
			}
			removedQ[e.Qubit] = true
		case topology.EditDisableCoupler:
			removedC[[2]int{e.Q1, e.Q2}] = true
		default:
			return nil, false, fmt.Errorf("unknown edit op %q", e.Op)
		}
	}

	if len(removedQ)+len(removedC) > 0 {
		// Dirty rects are computed against the PRE-removal state: the
		// space a removed element occupied is exactly where neighbors may
		// now improve.
		for q := range removedQ {
			dirty = append(dirty, n.Qubits[q].Rect())
		}
		removedR := make([]bool, len(n.Resonators))
		for i := range n.Resonators {
			r := &n.Resonators[i]
			k := [2]int{r.Q1, r.Q2}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			if removedQ[r.Q1] || removedQ[r.Q2] || removedC[k] {
				removedR[i] = true
				dirty = append(dirty, n.Route(i).BBox())
			}
		}

		qmap := make([]int, len(n.Qubits))
		newQubits := make([]netlist.Qubit, 0, len(n.Qubits)-len(removedQ))
		for i, q := range n.Qubits {
			if removedQ[i] {
				qmap[i] = -1
				continue
			}
			q.ID = len(newQubits)
			qmap[i] = q.ID
			newQubits = append(newQubits, q)
		}
		if len(newQubits) < 2 {
			return nil, false, fmt.Errorf("edit removes too many qubits (%d remain)", len(newQubits))
		}
		newRes := make([]netlist.Resonator, 0, len(n.Resonators))
		newBlocks := make([]netlist.WireBlock, 0, len(n.Blocks))
		for i := range n.Resonators {
			if removedR[i] {
				continue
			}
			r := n.Resonators[i]
			r.ID = len(newRes)
			r.Q1, r.Q2 = qmap[r.Q1], qmap[r.Q2]
			blocks := make([]int, 0, len(r.Blocks))
			for idx, bid := range r.Blocks {
				b := n.Blocks[bid]
				b.ID = len(newBlocks)
				b.Edge = r.ID
				b.Index = idx
				blocks = append(blocks, b.ID)
				newBlocks = append(newBlocks, b)
			}
			r.Blocks = blocks
			newRes = append(newRes, r)
		}
		n.Qubits, n.Resonators, n.Blocks = newQubits, newRes, newBlocks
	}

	if err := n.Validate(); err != nil {
		return nil, false, fmt.Errorf("edited netlist: %w", err)
	}
	for i := range dirty {
		dirty[i] = clipRect(dirty[i].Expand(dirtyMargin), n)
	}
	return dirty, warm, nil
}

// Repair produces the layout for (base ⊕ edits) by repairing the base
// layout's netlist in the dirty region. The edit list must already be
// canonical (topology.Canonicalize). warmStarted reports which path
// ran: false is the dropout/retune fast path (regional re-legalization
// plus region-restricted detailed placement for QGDPDP); true is the
// warm-start path (resize), which re-runs the force loop from the base
// positions and then the full legalization chain. An error from the
// fast path's safety valve means the edit disturbed more than the
// dirty-region analysis can bound, and the caller should fall back to
// the cold pipeline.
func Repair(base *Layout, s Strategy, cfg Config, edits []topology.Edit) (lay *Layout, warmStarted bool, err error) {
	n := base.Netlist.Clone()
	dirty, warm, err := applyNetlistEdits(n, edits)
	if err != nil {
		return nil, false, err
	}
	lay = &Layout{Netlist: n, QubitResult: base.QubitResult}

	if warm {
		gp := cfg.GP
		gp.Iterations = warmIterations(gp.Iterations)
		sp := cfg.Obs.Child("gplace.warmstart")
		start := time.Now()
		gplace.WarmStart(n, gp)
		lay.QubitTime = time.Since(start) // re-placement replaces t_q's GP share
		sp.End()
		if err := legalizeInto(lay, s, cfg); err != nil {
			return nil, true, err
		}
		return lay, true, nil
	}

	// Safety valve: qubit positions are inherited from the legal base, so
	// any overlap inside the dirty region means the edit broke an
	// assumption the fast path depends on — cold-fall-back rather than
	// repair on top of an illegal base.
	if v := qlegal.VerifyRegion(n, 0, dirty); v > 0 {
		return nil, false, fmt.Errorf("delta fast path: %d qubit violations in dirty region", v)
	}

	sp := cfg.Obs.Child("reslegal.delta")
	start := time.Now()
	if _, err := reslegal.LegalizeRegion(n, dirty); err != nil {
		sp.End()
		return nil, false, fmt.Errorf("delta re-legalization: %w", err)
	}
	lay.ResonatorTime = time.Since(start)
	sp.End()

	if s == QGDPDP {
		sp = cfg.Obs.Child("dplace.refine_region")
		dp := cfg.DP
		dp.Obs = sp
		start = time.Now()
		if _, err := dplace.RefineRegion(n, dp, dirty); err != nil {
			sp.End()
			return nil, false, fmt.Errorf("delta refinement: %w", err)
		}
		lay.DPTime = time.Since(start)
		sp.End()
	}
	return lay, false, nil
}

// PrepareEdited is the cold path for an edited device: apply the
// (canonical) edit list structurally, build the edited netlist, carry
// the tuning edits over, and run global placement from scratch. Used
// when no base envelope is reachable — the delta engine's correctness
// fallback — and by the equivalence suite as the reference result.
// Deliberately does NOT share the engine's GP cache: an edited device
// keeps its base name, so caching by (name, params) would collide with
// the unedited device.
func PrepareEdited(dev *topology.Device, cfg Config, edits []topology.Edit) (*netlist.Netlist, error) {
	edited, qmap, err := topology.ApplyEdits(dev, edits)
	if err != nil {
		return nil, err
	}
	sp := cfg.Obs.Child("topology.build")
	n := topology.Build(edited, cfg.Build)
	sp.End()
	for _, e := range edits {
		switch e.Op {
		case topology.EditRetune:
			if q := qmap[e.Qubit]; q >= 0 {
				n.Qubits[q].Freq = e.Freq
			}
		case topology.EditResize:
			n.W, n.H = e.W, e.H
		}
	}
	sp = cfg.Obs.Child("gplace.place")
	gplace.Place(n, cfg.GP)
	sp.End()
	return n, nil
}
