package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/layoutio"
	"repro/internal/qlegal"
	"repro/internal/topology"
)

// deltaTestConfig is the equivalence suite's shared config: few
// mappings (fidelity averages stay deterministic per seed) so the
// matrix of topologies × strategies × edits stays fast.
func deltaTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Mappings = 25
	return cfg
}

// buildBase runs the cold pipeline once: the base layout a repair
// starts from.
func buildBase(t *testing.T, dev *topology.Device, s Strategy, cfg Config) *Layout {
	t.Helper()
	gp := Prepare(dev, cfg)
	lay, err := Legalize(gp, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// marshal serializes a layout's netlist with the canonical writer —
// the byte-identity oracle the cluster tests use too.
func marshal(t *testing.T, lay *Layout) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := layoutio.WriteJSON(&buf, lay.Netlist); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dropoutEdits returns the canonical single-qubit-dropout list for the
// lowest removable qubit.
func dropoutEdits(t *testing.T, dev *topology.Device) []topology.Edit {
	t.Helper()
	for q := 0; q < dev.Qubits; q++ {
		edits := []topology.Edit{{Op: topology.EditDisableQubit, Qubit: q}}
		if _, _, err := topology.ApplyEdits(dev, edits); err == nil {
			c, err := topology.Canonicalize(dev, edits)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	t.Fatalf("no removable qubit on %s", dev.Name)
	return nil
}

// couplerEdits returns a canonical single-coupler-dropout list for the
// first removable coupler.
func couplerEdits(t *testing.T, dev *topology.Device) []topology.Edit {
	t.Helper()
	for _, e := range dev.Edges {
		edits := []topology.Edit{{Op: topology.EditDisableCoupler, Q1: e[0], Q2: e[1]}}
		if _, _, err := topology.ApplyEdits(dev, edits); err == nil {
			c, err := topology.Canonicalize(dev, edits)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	t.Fatalf("no removable coupler on %s", dev.Name)
	return nil
}

// TestRepairDeterministic: the same repair is byte-identical across
// repeated runs (the paper's determinism invariant, extended to the
// delta path).
func TestRepairDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	dev := topology.Grid25()
	cfg := deltaTestConfig()
	base := buildBase(t, dev, QGDPDP, cfg)
	edits := dropoutEdits(t, dev)

	var want []byte
	for run := 0; run < 3; run++ {
		lay, warm, err := Repair(base, QGDPDP, cfg, edits)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if warm {
			t.Fatalf("run %d: dropout took the warm path", run)
		}
		got := marshal(t, lay)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("run %d: repair bytes differ from first run", run)
		}
	}
}

// TestRepairEquivalence: across the small topologies × {LG, DP} ×
// {qubit dropout, coupler dropout}, the repaired layout is legal,
// structurally identical to the edited device, and its Eq. 7 fidelity
// is within tolerance of the cold pipeline's. The placements differ
// (repair inherits base positions, cold re-places from scratch) so
// exact fidelity equality is not expected; the tolerance is
// per-strategy. qGDP-DP's window refinement converges both placements to
// the same local structure, so its tolerance is tight (observed diffs
// < 0.002). qGDP-LG carries no refinement stage — its fidelity
// inherits the full variance between two legitimate placements, in
// either direction (on some cells the cold re-place lands in a
// noticeably worse optimum than the preserved base) — so its check is
// a loose guard against catastrophic repair damage, not an equality.
func TestRepairEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	const bench = "bv-4"
	tol := map[Strategy]float64{QGDPDP: 0.01, QGDPLG: 0.25}
	cfg := deltaTestConfig()
	for _, dev := range topology.Small() {
		for _, s := range []Strategy{QGDPLG, QGDPDP} {
			base := buildBase(t, dev, s, cfg)
			for name, edits := range map[string][]topology.Edit{
				"qubit-dropout":   dropoutEdits(t, dev),
				"coupler-dropout": couplerEdits(t, dev),
			} {
				lay, warm, err := Repair(base, s, cfg, edits)
				if err != nil {
					t.Errorf("%s/%s/%s: repair: %v", dev.Name, s, name, err)
					continue
				}
				if warm {
					t.Errorf("%s/%s/%s: dropout took the warm path", dev.Name, s, name)
				}
				if err := lay.Netlist.Validate(); err != nil {
					t.Errorf("%s/%s/%s: repaired netlist invalid: %v", dev.Name, s, name, err)
				}
				if v := qlegal.Verify(lay.Netlist, 0); v > 0 {
					t.Errorf("%s/%s/%s: repaired layout has %d qubit violations", dev.Name, s, name, v)
				}

				// Cold reference: the full pipeline on the edited device.
				cold, err := PrepareEdited(dev, cfg, edits)
				if err != nil {
					t.Fatalf("%s/%s/%s: cold prepare: %v", dev.Name, s, name, err)
				}
				coldLay, err := Legalize(cold, s, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: cold legalize: %v", dev.Name, s, name, err)
				}
				if got, want := len(lay.Netlist.Qubits), len(coldLay.Netlist.Qubits); got != want {
					t.Errorf("%s/%s/%s: repair has %d qubits, cold has %d", dev.Name, s, name, got, want)
					continue
				}
				if got, want := len(lay.Netlist.Resonators), len(coldLay.Netlist.Resonators); got != want {
					t.Errorf("%s/%s/%s: repair has %d resonators, cold has %d", dev.Name, s, name, got, want)
					continue
				}

				fRepair, err := AverageFidelity(lay.Netlist, bench, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: repair fidelity: %v", dev.Name, s, name, err)
				}
				fCold, err := AverageFidelity(coldLay.Netlist, bench, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: cold fidelity: %v", dev.Name, s, name, err)
				}
				if d := math.Abs(fRepair - fCold); d > tol[s] {
					t.Errorf("%s/%s/%s: fidelity repair=%.4f cold=%.4f diff=%.4f > %.2f",
						dev.Name, s, name, fRepair, fCold, d, tol[s])
				} else {
					t.Logf("%s/%s/%s: fidelity repair=%.4f cold=%.4f diff=%.4f",
						dev.Name, s, name, fRepair, fCold, d)
				}
			}
		}
	}
}

// TestRepairResizeWarmStarts: a substrate resize invalidates global
// structure, so the repair must take the warm-start path and still
// produce a legal layout on the new substrate.
func TestRepairResizeWarmStarts(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	dev := topology.Grid25()
	cfg := deltaTestConfig()
	base := buildBase(t, dev, QGDPLG, cfg)
	edits, err := topology.Canonicalize(dev, []topology.Edit{
		{Op: topology.EditResize, W: base.Netlist.W * 1.2, H: base.Netlist.H * 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, warm, err := Repair(base, QGDPLG, cfg, edits)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("resize did not warm-start")
	}
	if lay.Netlist.W != base.Netlist.W*1.2 {
		t.Errorf("substrate width %g, want %g", lay.Netlist.W, base.Netlist.W*1.2)
	}
	if err := lay.Netlist.Validate(); err != nil {
		t.Errorf("warm-started netlist invalid: %v", err)
	}
	if v := qlegal.Verify(lay.Netlist, 0); v > 0 {
		t.Errorf("warm-started layout has %d qubit violations", v)
	}
}

// TestRepairDoesNotMutateBase: Repair works on a clone; the base
// layout an engine may serve concurrently must stay untouched.
func TestRepairDoesNotMutateBase(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	dev := topology.Grid25()
	cfg := deltaTestConfig()
	base := buildBase(t, dev, QGDPLG, cfg)
	before := marshal(t, base)
	if _, _, err := Repair(base, QGDPLG, cfg, dropoutEdits(t, dev)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, marshal(t, base)) {
		t.Error("repair mutated the base layout")
	}
}
