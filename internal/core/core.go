// Package core is the qGDP pipeline: it glues the global placement
// substrate, the five legalization strategies of the evaluation
// (qGDP-LG, Q-Abacus, Q-Tetris, Abacus, Tetris), the detailed placer
// (qGDP-DP), the layout metrics, and the fidelity model into the
// end-to-end flow the paper's experiments run.
//
// Typical use:
//
//	dev, _ := topology.ByName("Falcon")
//	cfg := core.DefaultConfig()
//	gp := core.Prepare(dev, cfg)                  // netlist + global placement
//	lay, _ := core.Legalize(gp, core.QGDPLG, cfg) // any strategy, on a clone
//	rep := metrics.Analyze(lay.Netlist, cfg.Metrics)
//	f, _ := core.AverageFidelity(lay.Netlist, "bv-4", cfg)
package core

import (
	"fmt"
	"time"

	"repro/internal/geom"

	"repro/internal/abacus"
	"repro/internal/dplace"
	"repro/internal/fidelity"
	"repro/internal/gplace"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/qbench"
	"repro/internal/qlegal"
	"repro/internal/reslegal"
	"repro/internal/tetris"
	"repro/internal/topology"
)

// Strategy names a legalization flow from the evaluation (§IV).
type Strategy string

// The five legalization strategies compared in Figs. 8-9 and Table II,
// plus qGDP-DP (qGDP-LG refined by the detailed placer, Table III).
const (
	// QGDPLG: quantum qubit legalizer + integration-aware resonator
	// legalizer (the paper's contribution, LG stage).
	QGDPLG Strategy = "qGDP-LG"
	// QGDPDP: QGDPLG followed by the detailed placer.
	QGDPDP Strategy = "qGDP-DP"
	// QAbacus: quantum qubit legalizer + Abacus for resonators.
	QAbacus Strategy = "Q-Abacus"
	// QTetris: quantum qubit legalizer + Tetris for resonators.
	QTetris Strategy = "Q-Tetris"
	// AbacusS: classic macro legalizer + Abacus for resonators.
	AbacusS Strategy = "Abacus"
	// TetrisS: classic macro legalizer + Tetris for resonators.
	TetrisS Strategy = "Tetris"
)

// Strategies returns the five Fig. 8/9 strategies in the paper's legend
// order.
func Strategies() []Strategy {
	return []Strategy{QGDPLG, QAbacus, QTetris, AbacusS, TetrisS}
}

// Config gathers every stage's parameters.
type Config struct {
	Build    topology.BuildParams
	GP       gplace.Params
	DP       dplace.Params
	Metrics  metrics.Params
	Fidelity fidelity.Params
	// Mappings is the number of seeded transpilations averaged per
	// fidelity bar (the paper uses 50).
	Mappings int
	// Obs is the request span pipeline stages hang their sub-spans
	// under. Like the Par budgets, it is excluded from JSON (and hence
	// from canonical cache keys) and stamped per call by the serving
	// layer; nil means no tracing, at zero cost.
	Obs *obs.Span `json:"-"`
}

// DefaultConfig mirrors the evaluation setup.
func DefaultConfig() Config {
	return Config{
		Build:    topology.DefaultBuildParams(),
		GP:       gplace.DefaultParams(),
		DP:       dplace.DefaultParams(),
		Metrics:  metrics.DefaultParams(),
		Fidelity: fidelity.DefaultParams(),
		Mappings: 50,
	}
}

// Prepare builds the netlist for a device and runs global placement.
// All strategies legalize clones of the same GP solution, as in the
// paper's methodology.
func Prepare(dev *topology.Device, cfg Config) *netlist.Netlist {
	sp := cfg.Obs.Child("topology.build")
	n := topology.Build(dev, cfg.Build)
	sp.End()
	sp = cfg.Obs.Child("gplace.place")
	gplace.Place(n, cfg.GP)
	sp.End()
	return n
}

// Layout is a legalized placement with its stage timings (Table II).
type Layout struct {
	Netlist *netlist.Netlist
	// QubitTime and ResonatorTime are t_q and t_e.
	QubitTime, ResonatorTime time.Duration
	// DPTime is the detailed placement time (QGDPDP only).
	DPTime time.Duration
	// QubitResult carries displacement/relaxation stats.
	QubitResult qlegal.Result
	// Report is the Table III quality report of Netlist. The serving
	// engine fills it once when it computes the layout (its metric
	// thresholds are part of the layout's cache key) and stores it with
	// the layout; Legalize and Repair leave it zero.
	Report metrics.Report
}

// Legalize applies a strategy to a clone of the GP solution.
func Legalize(gp *netlist.Netlist, s Strategy, cfg Config) (*Layout, error) {
	lay := &Layout{Netlist: gp.Clone()}
	if err := legalizeInto(lay, s, cfg); err != nil {
		return nil, err
	}
	return lay, nil
}

// legalizeInto runs the full legalization chain (qubit macro LP, block
// drag, resonator legalizer, and — for QGDPDP — detailed placement) on
// lay.Netlist in place, filling the layout's timings and results. Split
// from Legalize so the delta engine's warm-start path can reuse the
// chain on a netlist it already owns.
func legalizeInto(lay *Layout, s Strategy, cfg Config) error {
	n := lay.Netlist

	qp := qlegal.QuantumParams()
	if s == AbacusS || s == TetrisS {
		qp = qlegal.ClassicParams()
	}
	pre := make([]geom.Pt, len(n.Qubits))
	for i, q := range n.Qubits {
		pre[i] = q.Pos
	}
	sp := cfg.Obs.Child("qlegal.legalize")
	start := time.Now()
	qres, err := qlegal.Legalize(n, qp)
	lay.QubitTime = time.Since(start)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s qubit legalization: %w", s, err)
	}
	lay.QubitResult = qres
	dragBlocks(n, pre)

	sp = cfg.Obs.Child("reslegal." + resonatorLegalizer(s))
	start = time.Now()
	switch s {
	case QGDPLG, QGDPDP:
		_, err = reslegal.Legalize(n)
	case QAbacus, AbacusS:
		_, err = abacus.Legalize(n)
	case QTetris, TetrisS:
		_, err = tetris.Legalize(n)
	default:
		sp.End()
		return fmt.Errorf("unknown strategy %q", s)
	}
	lay.ResonatorTime = time.Since(start)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s resonator legalization: %w", s, err)
	}

	if s == QGDPDP {
		sp = cfg.Obs.Child("dplace.refine")
		dp := cfg.DP
		dp.Obs = sp
		start = time.Now()
		if _, err := dplace.Refine(n, dp); err != nil {
			sp.End()
			return fmt.Errorf("detailed placement: %w", err)
		}
		lay.DPTime = time.Since(start)
		sp.End()
	}
	return nil
}

// resonatorLegalizer names the resonator-stage span suffix for a
// strategy ("reslegal.qgdp", "reslegal.abacus", "reslegal.tetris").
func resonatorLegalizer(s Strategy) string {
	switch s {
	case QAbacus, AbacusS:
		return "abacus"
	case QTetris, TetrisS:
		return "tetris"
	default:
		return "qgdp"
	}
}

// dragBlocks translates each resonator's wire blocks by its endpoint
// qubits' legalization displacement, interpolated along the block chain.
// Qubit legalization can move macros substantially (spacing expansion);
// dragging the reserved resonator space along preserves the GP solution's
// relative intent before resonator legalization snaps blocks to bins.
func dragBlocks(n *netlist.Netlist, pre []geom.Pt) {
	for _, r := range n.Resonators {
		d1 := n.Qubits[r.Q1].Pos.Sub(pre[r.Q1])
		d2 := n.Qubits[r.Q2].Pos.Sub(pre[r.Q2])
		nb := float64(len(r.Blocks))
		for i, id := range r.Blocks {
			w := (float64(i) + 0.5) / nb
			shift := d1.Scale(1 - w).Add(d2.Scale(w))
			b := &n.Blocks[id]
			b.Pos = b.Pos.Add(shift)
			half := n.BlockSize / 2
			b.Pos.X = geom.Clamp(b.Pos.X, half, n.W-half)
			b.Pos.Y = geom.Clamp(b.Pos.Y, half, n.H-half)
		}
	}
}

// AverageFidelity evaluates one Fig. 8 bar: the named benchmark mapped
// cfg.Mappings times onto the layout.
func AverageFidelity(n *netlist.Netlist, benchmark string, cfg Config) (float64, error) {
	c, err := qbench.ByName(benchmark)
	if err != nil {
		return 0, err
	}
	sp := cfg.Obs.Child("fidelity.average")
	sp.AttrInt("mappings", int64(cfg.Mappings))
	defer sp.End()
	return fidelity.Average(n, c, cfg.Fidelity, cfg.Mappings)
}

// Analyze is a convenience wrapper over metrics.Analyze with the
// config's thresholds.
func Analyze(n *netlist.Netlist, cfg Config) metrics.Report {
	sp := cfg.Obs.Child("metrics.analyze")
	defer sp.End()
	return metrics.Analyze(n, cfg.Metrics)
}
