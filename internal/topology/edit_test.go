package topology

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// pathDevice is a 3-qubit line 0-1-2: removing the middle qubit
// disconnects it, removing an end qubit does not.
func pathDevice() *Device {
	return &Device{
		Name:   "Path3",
		Qubits: 3,
		Edges:  [][2]int{{0, 1}, {1, 2}},
		Coords: []geom.Pt{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}},
	}
}

// TestCanonicalizeOrderInvariance: two orderings (and endpoint
// spellings) of the same edit list canonicalize identically — the
// property the delta cache key depends on.
func TestCanonicalizeOrderInvariance(t *testing.T) {
	dev := Grid25()
	a := []Edit{
		{Op: EditRetune, Qubit: 7, Freq: 5.1},
		{Op: EditDisableCoupler, Q1: 6, Q2: 5}, // endpoints reversed
		{Op: EditDisableQubit, Qubit: 12},
		{Op: EditResize, W: 40, H: 40},
	}
	b := []Edit{
		{Op: EditResize, W: 40, H: 40},
		{Op: EditDisableQubit, Qubit: 12},
		{Op: EditDisableCoupler, Q1: 5, Q2: 6},
		{Op: EditRetune, Qubit: 7, Freq: 5.1},
	}
	ca, err := Canonicalize(dev, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonicalize(dev, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("canonical forms differ:\n%+v\n%+v", ca, cb)
	}
	// Structural removals sort first, resize last; coupler endpoints
	// are ordered.
	if ca[0].Op != EditDisableQubit || ca[len(ca)-1].Op != EditResize {
		t.Errorf("canonical order wrong: %+v", ca)
	}
	for _, e := range ca {
		if e.Op == EditDisableCoupler && e.Q1 > e.Q2 {
			t.Errorf("coupler endpoints unordered: %+v", e)
		}
	}
}

// TestCanonicalizeRejects: every malformed or contradictory list is
// rejected loudly rather than hashed into a surprising repair.
func TestCanonicalizeRejects(t *testing.T) {
	dev := Grid25()
	cases := []struct {
		name  string
		edits []Edit
	}{
		{"empty", nil},
		{"unknown op", []Edit{{Op: "explode"}}},
		{"qubit out of range", []Edit{{Op: EditDisableQubit, Qubit: dev.Qubits}}},
		{"negative qubit", []Edit{{Op: EditDisableQubit, Qubit: -1}}},
		{"nonexistent coupler", []Edit{{Op: EditDisableCoupler, Q1: 0, Q2: 24}}},
		{"self coupler", []Edit{{Op: EditDisableCoupler, Q1: 3, Q2: 3}}},
		{"duplicate qubit disable", []Edit{
			{Op: EditDisableQubit, Qubit: 3}, {Op: EditDisableQubit, Qubit: 3}}},
		{"duplicate coupler disable", []Edit{
			{Op: EditDisableCoupler, Q1: 0, Q2: 1}, {Op: EditDisableCoupler, Q1: 1, Q2: 0}}},
		{"double retune", []Edit{
			{Op: EditRetune, Qubit: 2, Freq: 5}, {Op: EditRetune, Qubit: 2, Freq: 6}}},
		{"nonpositive frequency", []Edit{{Op: EditRetune, Qubit: 2, Freq: 0}}},
		{"retune of disabled qubit", []Edit{
			{Op: EditDisableQubit, Qubit: 2}, {Op: EditRetune, Qubit: 2, Freq: 5}}},
		{"coupler of disabled qubit", []Edit{
			{Op: EditDisableQubit, Qubit: 0}, {Op: EditDisableCoupler, Q1: 0, Q2: 1}}},
		{"two resizes", []Edit{
			{Op: EditResize, W: 40, H: 40}, {Op: EditResize, W: 50, H: 50}}},
		{"nonpositive resize", []Edit{{Op: EditResize, W: 0, H: 40}}},
		{"NaN frequency", []Edit{{Op: EditRetune, Qubit: 2, Freq: math.NaN()}}},
		{"infinite frequency", []Edit{{Op: EditRetune, Qubit: 2, Freq: math.Inf(1)}}},
		{"negative infinite frequency", []Edit{{Op: EditRetune, Qubit: 2, Freq: math.Inf(-1)}}},
		{"NaN resize", []Edit{{Op: EditResize, W: math.NaN(), H: 40}}},
		{"infinite resize", []Edit{{Op: EditResize, W: 40, H: math.Inf(1)}}},
		{"huge resize", []Edit{{Op: EditResize, W: 1e6, H: 1e6}}},
		{"resize one past the cap", []Edit{{Op: EditResize, W: 40, H: MaxResizeSide + 1}}},
	}
	for _, tc := range cases {
		if _, err := Canonicalize(dev, tc.edits); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

// TestCanonicalizeResizeCap: a resize up to MaxResizeSide per side is
// accepted as given.
func TestCanonicalizeResizeCap(t *testing.T) {
	edits := []Edit{{Op: EditResize, W: MaxResizeSide, H: MaxResizeSide}}
	got, err := Canonicalize(Grid25(), edits)
	if err != nil {
		t.Fatalf("resize at the cap rejected: %v", err)
	}
	if !slices.Equal(got, edits) {
		t.Errorf("canonical resize %+v, want %+v", got, edits)
	}
}

// TestApplyEditsRenumbering: a single dropout renumbers the remainder
// densely, the old→new map marks the removed qubit, and no surviving
// edge references it.
func TestApplyEditsRenumbering(t *testing.T) {
	dev := Grid25()
	edits, err := Canonicalize(dev, []Edit{{Op: EditDisableQubit, Qubit: 7}})
	if err != nil {
		t.Fatal(err)
	}
	out, qmap, err := ApplyEdits(dev, edits)
	if err != nil {
		t.Fatal(err)
	}
	if out.Qubits != dev.Qubits-1 {
		t.Errorf("edited device has %d qubits, want %d", out.Qubits, dev.Qubits-1)
	}
	if qmap[7] != -1 {
		t.Errorf("qmap[7] = %d, want -1", qmap[7])
	}
	for q, m := range qmap {
		want := q
		if q > 7 {
			want = q - 1
		}
		if q != 7 && m != want {
			t.Errorf("qmap[%d] = %d, want %d", q, m, want)
		}
	}
	deg := dev.Degree()
	if got, want := len(out.Edges), len(dev.Edges)-deg[7]; got != want {
		t.Errorf("edited device has %d edges, want %d", got, want)
	}
	for _, e := range out.Edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= out.Qubits || e[1] >= out.Qubits {
			t.Errorf("edge %v out of renumbered range", e)
		}
	}
	if err := out.Validate(); err != nil {
		t.Errorf("edited device invalid: %v", err)
	}
}

// TestApplyEditsCouplerOnly: a coupler dropout keeps every qubit and
// its numbering; only the edge disappears.
func TestApplyEditsCouplerOnly(t *testing.T) {
	dev := Grid25()
	e0 := dev.Edges[0]
	edits, err := Canonicalize(dev, []Edit{{Op: EditDisableCoupler, Q1: e0[0], Q2: e0[1]}})
	if err != nil {
		t.Fatal(err)
	}
	out, qmap, err := ApplyEdits(dev, edits)
	if err != nil {
		t.Fatal(err)
	}
	if out.Qubits != dev.Qubits || len(out.Edges) != len(dev.Edges)-1 {
		t.Errorf("coupler dropout: %d qubits %d edges, want %d/%d",
			out.Qubits, len(out.Edges), dev.Qubits, len(dev.Edges)-1)
	}
	for q, m := range qmap {
		if m != q {
			t.Errorf("coupler dropout renumbered qubit %d to %d", q, m)
		}
	}
}

// TestApplyEditsRejectsDisconnect: a dropout that splits the coupling
// graph is a different device, not a repairable drift.
func TestApplyEditsRejectsDisconnect(t *testing.T) {
	dev := pathDevice()
	if err := dev.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyEdits(dev, []Edit{{Op: EditDisableQubit, Qubit: 1}}); err == nil {
		t.Error("disconnecting dropout accepted, want error")
	}
	// The end qubit is removable.
	if _, _, err := ApplyEdits(dev, []Edit{{Op: EditDisableQubit, Qubit: 0}}); err != nil {
		t.Errorf("end-qubit dropout rejected: %v", err)
	}
	// Cutting the only path between halves disconnects too.
	if _, _, err := ApplyEdits(dev, []Edit{{Op: EditDisableCoupler, Q1: 0, Q2: 1}}); err == nil {
		t.Error("disconnecting coupler dropout accepted, want error")
	}
}
