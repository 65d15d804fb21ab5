package topology

import (
	"fmt"
	"math"
	"sort"
)

// The edit operations a delta request may apply to a base device. They
// model the live-hardware drift the incremental engine repairs around:
// calibration dropouts (a qubit or coupler leaves service), frequency
// retunes, and substrate resizes.
const (
	// EditDisableQubit removes one qubit and every coupler incident to
	// it. A structural edit: the device is renumbered.
	EditDisableQubit = "disable_qubit"
	// EditDisableCoupler removes one coupling edge (its resonator).
	EditDisableCoupler = "disable_coupler"
	// EditRetune changes one qubit's operating frequency. Non-structural:
	// the coupling graph is untouched.
	EditRetune = "retune"
	// EditResize changes the substrate dimensions. Non-structural for the
	// graph, but it invalidates every placement globally.
	EditResize = "resize"
)

// MaxResizeSide caps each side of a resized substrate, in layout cells.
// The warm repair path allocates routing and bin grids of W·H cells, so
// an unbounded resize would let one request demand arbitrary memory;
// the largest evaluation substrate (Aspen-M) is 102 cells on a side.
const MaxResizeSide = 1024

// Edit is one entry of a delta request's edit list. Which fields are
// meaningful depends on Op: disable_qubit and retune use Qubit (retune
// also Freq); disable_coupler uses Q1/Q2; resize uses W/H. All indices
// refer to the BASE device's numbering — renumbering caused by earlier
// structural edits in the same list never shifts later entries.
type Edit struct {
	Op    string  `json:"op"`
	Qubit int     `json:"qubit,omitempty"`
	Q1    int     `json:"q1,omitempty"`
	Q2    int     `json:"q2,omitempty"`
	Freq  float64 `json:"freq,omitempty"`
	W     float64 `json:"w,omitempty"`
	H     float64 `json:"h,omitempty"`
}

// editRank orders ops for the canonical edit list: structural removals
// first, then retunes, then the (at most one) resize.
func editRank(op string) int {
	switch op {
	case EditDisableQubit:
		return 0
	case EditDisableCoupler:
		return 1
	case EditRetune:
		return 2
	default:
		return 3
	}
}

// Canonicalize validates edits against base and returns the canonical
// form: fields irrelevant to each op zeroed, coupler endpoints ordered
// Q1 < Q2, and the list sorted deterministically (op rank, then
// indices). Two requests that mean the same repair therefore hash to
// the same delta cache key regardless of how the client ordered or
// spelled its list. Rejected: unknown ops, out-of-range indices,
// unknown couplers, duplicate or conflicting entries (two retunes of
// one qubit, a retune of a disabled qubit, a coupler edit incident to
// a disabled qubit, more than one resize), non-positive or non-finite
// frequencies or dimensions, a resize side above MaxResizeSide, and the
// empty list.
func Canonicalize(base *Device, edits []Edit) ([]Edit, error) {
	if len(edits) == 0 {
		return nil, fmt.Errorf("edit list: empty")
	}
	edgeSet := make(map[[2]int]bool, len(base.Edges))
	for _, e := range base.Edges {
		k := e
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		edgeSet[k] = true
	}
	out := make([]Edit, 0, len(edits))
	disabledQ := map[int]bool{}
	retuned := map[int]bool{}
	disabledC := map[[2]int]bool{}
	resized := false
	for i, e := range edits {
		switch e.Op {
		case EditDisableQubit:
			if e.Qubit < 0 || e.Qubit >= base.Qubits {
				return nil, fmt.Errorf("edit %d: qubit %d out of range [0,%d)", i, e.Qubit, base.Qubits)
			}
			if disabledQ[e.Qubit] {
				return nil, fmt.Errorf("edit %d: qubit %d disabled twice", i, e.Qubit)
			}
			disabledQ[e.Qubit] = true
			out = append(out, Edit{Op: EditDisableQubit, Qubit: e.Qubit})
		case EditDisableCoupler:
			q1, q2 := e.Q1, e.Q2
			if q1 > q2 {
				q1, q2 = q2, q1
			}
			if q1 < 0 || q2 >= base.Qubits || q1 == q2 {
				return nil, fmt.Errorf("edit %d: coupler (%d,%d) out of range", i, e.Q1, e.Q2)
			}
			if !edgeSet[[2]int{q1, q2}] {
				return nil, fmt.Errorf("edit %d: no coupler (%d,%d) in %s", i, q1, q2, base.Name)
			}
			if disabledC[[2]int{q1, q2}] {
				return nil, fmt.Errorf("edit %d: coupler (%d,%d) disabled twice", i, q1, q2)
			}
			disabledC[[2]int{q1, q2}] = true
			out = append(out, Edit{Op: EditDisableCoupler, Q1: q1, Q2: q2})
		case EditRetune:
			if e.Qubit < 0 || e.Qubit >= base.Qubits {
				return nil, fmt.Errorf("edit %d: qubit %d out of range [0,%d)", i, e.Qubit, base.Qubits)
			}
			if !(e.Freq > 0) || math.IsInf(e.Freq, 1) {
				return nil, fmt.Errorf("edit %d: retune frequency %g must be positive and finite", i, e.Freq)
			}
			if retuned[e.Qubit] {
				return nil, fmt.Errorf("edit %d: qubit %d retuned twice", i, e.Qubit)
			}
			retuned[e.Qubit] = true
			out = append(out, Edit{Op: EditRetune, Qubit: e.Qubit, Freq: e.Freq})
		case EditResize:
			if !(e.W > 0 && e.W <= MaxResizeSide && e.H > 0 && e.H <= MaxResizeSide) {
				return nil, fmt.Errorf("edit %d: resize %gx%g must be positive, finite and at most %d per side",
					i, e.W, e.H, MaxResizeSide)
			}
			if resized {
				return nil, fmt.Errorf("edit %d: more than one resize", i)
			}
			resized = true
			out = append(out, Edit{Op: EditResize, W: e.W, H: e.H})
		default:
			return nil, fmt.Errorf("edit %d: unknown op %q", i, e.Op)
		}
	}
	// Cross-entry conflicts: edits referencing a qubit removed by the
	// same list are contradictions, not no-ops — reject loudly so a
	// client bug cannot silently hash to a different repair than it
	// believes it requested.
	for _, e := range out {
		switch e.Op {
		case EditDisableCoupler:
			if disabledQ[e.Q1] || disabledQ[e.Q2] {
				return nil, fmt.Errorf("coupler (%d,%d) edit conflicts with disabling its qubit", e.Q1, e.Q2)
			}
		case EditRetune:
			if disabledQ[e.Qubit] {
				return nil, fmt.Errorf("retune of qubit %d conflicts with disabling it", e.Qubit)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ra, rb := editRank(a.Op), editRank(b.Op); ra != rb {
			return ra < rb
		}
		if a.Qubit != b.Qubit {
			return a.Qubit < b.Qubit
		}
		if a.Q1 != b.Q1 {
			return a.Q1 < b.Q1
		}
		return a.Q2 < b.Q2
	})
	return out, nil
}

// ApplyEdits returns the device base becomes after the structural edits
// in the (canonical) list — disabled qubits and couplers removed, the
// remainder renumbered densely — plus the old→new qubit index map (-1
// for removed qubits). Retune and resize entries are graph-neutral and
// ignored here; callers apply them at the netlist/config level. The
// edited device must remain a valid device (≥ 2 qubits, connected): a
// dropout that splits the coupling graph is a different device, not a
// repairable drift, and is rejected.
func ApplyEdits(base *Device, edits []Edit) (*Device, []int, error) {
	removedQ := map[int]bool{}
	removedC := map[[2]int]bool{}
	for _, e := range edits {
		switch e.Op {
		case EditDisableQubit:
			removedQ[e.Qubit] = true
		case EditDisableCoupler:
			removedC[[2]int{e.Q1, e.Q2}] = true
		}
	}
	qmap := make([]int, base.Qubits)
	next := 0
	for q := 0; q < base.Qubits; q++ {
		if removedQ[q] {
			qmap[q] = -1
			continue
		}
		qmap[q] = next
		next++
	}
	if next < 2 {
		return nil, nil, fmt.Errorf("edited %s: %d qubits remain, need at least 2", base.Name, next)
	}
	out := &Device{Name: base.Name, Qubits: next}
	for q := 0; q < base.Qubits; q++ {
		if qmap[q] >= 0 {
			out.Coords = append(out.Coords, base.Coords[q])
		}
	}
	for _, e := range base.Edges {
		k := e
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if removedC[k] || qmap[e[0]] < 0 || qmap[e[1]] < 0 {
			continue
		}
		out.Edges = append(out.Edges, [2]int{qmap[e[0]], qmap[e[1]]})
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("edited device invalid: %w", err)
	}
	return out, qmap, nil
}
