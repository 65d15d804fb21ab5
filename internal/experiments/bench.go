// Trajectory points: the machine-readable output of qgdp-bench -json.
// Each point captures the paper's runtime tables (Table II/III) plus the
// hot-kernel counters for one run of the evaluation pipeline, so the
// repo can accumulate a BENCH_<PR>.json series and catch performance
// regressions between PRs.

package experiments

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kernstats"
	"repro/internal/service"
	"repro/internal/topology"
)

// BenchPoint is one performance-trajectory sample.
type BenchPoint struct {
	Schema    string    `json:"schema"` // "qgdp-bench-point-v1"
	PR        int       `json:"pr,omitempty"`
	Timestamp time.Time `json:"timestamp"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`

	// Table2 and Table3 carry the measured legalization / detailed
	// placement runtimes and quality for the run.
	Table2 *Table2Result `json:"table2,omitempty"`
	Table3 *Table3Result `json:"table3,omitempty"`
	// Delta is the incremental-repair benchmark: single-qubit-dropout
	// delta vs cold pipeline per topology (qGDP-DP).
	Delta *DeltaBenchResult `json:"delta,omitempty"`

	// Kernels are the process-wide hot-kernel counters accumulated over
	// the run (calls, cumulative ms, scratch reuse).
	Kernels map[string]kernstats.Snapshot `json:"kernels"`
	// Counters are the process-wide event counters: DP windows, store
	// tiers, jobs, cluster and delta traffic.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Engine is the serving-layer cache/singleflight picture.
	Engine service.StatsSnapshot `json:"engine"`
}

// BenchPoint measures a trajectory point through the runner's engine:
// Table II and Table III are (re)computed — hitting the engine caches
// when the experiments already ran — and the kernel counters are
// snapshotted afterwards.
func (r *Runner) BenchPoint(devs []*topology.Device, cfg core.Config, pr int) (*BenchPoint, error) {
	t2, err := r.Table2(devs, cfg)
	if err != nil {
		return nil, err
	}
	t3, err := r.Table3(devs, cfg)
	if err != nil {
		return nil, err
	}
	// The delta benchmark reuses the layouts Table II/III just computed
	// as its base envelopes, so only the edited-device cold runs and the
	// repairs themselves add time here.
	delta, err := r.DeltaBench(devs, cfg, core.QGDPDP)
	if err != nil {
		return nil, err
	}
	engine := r.eng.Stats()
	engine.Kernels = nil  // reported once, at the top level
	engine.Counters = nil // likewise
	return &BenchPoint{
		Schema:    "qgdp-bench-point-v1",
		PR:        pr,
		Timestamp: time.Now().UTC(),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Table2:    t2,
		Table3:    t3,
		Delta:     delta,
		Kernels:   kernstats.All(),
		Counters:  kernstats.Counters(),
		Engine:    engine,
	}, nil
}

// WriteJSON emits the point as indented JSON.
func (p *BenchPoint) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LivePoint samples a trajectory point from a running engine without
// recomputing the tables: the hot-kernel counters, event counters and
// engine stats accumulated since process start. Table II/III are
// omitted (nothing is measured on demand), so sampling is free and safe
// to expose on a production instance.
func LivePoint(eng *service.Engine, pr int) *BenchPoint {
	engine := eng.Stats()
	engine.Kernels = nil
	engine.Counters = nil
	return &BenchPoint{
		Schema:    "qgdp-bench-point-v1",
		PR:        pr,
		Timestamp: time.Now().UTC(),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Kernels:   kernstats.All(),
		Counters:  kernstats.Counters(),
		Engine:    engine,
	}
}

// BenchzHandler serves LivePoint as JSON. qgdp-serve mounts it at
// /benchz, so a running instance publishes the same machine-readable
// trajectory points as `qgdp-bench -json`, sourced from its own live
// counters instead of a fresh benchmark run.
func BenchzHandler(eng *service.Engine, pr int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = LivePoint(eng, pr).WriteJSON(w)
	})
}
