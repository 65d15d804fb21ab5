package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// metric is one reported number. Samples is the count a percentile or
// mean was taken over, 0 where that does not apply.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report is one run's result.
type report struct {
	Workload    string
	Seed        int64
	Trace       bool
	Machine     map[string]any
	InputDigest string
	// OutputDigest hashes the layouts and fidelity values served to the
	// first QualityReqs requests, in list order.
	OutputDigest string
	QualityReqs  int
	Sent, Failed int
	FirstErr     error
	Correct      bool
	// Metrics go on the final line; Extra only on the detail lines.
	Metrics []metric
	Extra   []metric
}

// measure runs the workload: the end-to-end run without tracing, or,
// with o.trace, the traced run.
func measure(w *workload, o options) (*report, error) {
	rep := &report{
		Workload:    w.Name,
		Seed:        o.seed,
		Trace:       o.trace,
		Machine:     machine(o, w),
		InputDigest: w.inputDigest(),
	}
	if o.trace {
		return rep, traced(w, o, rep)
	}
	return rep, untraced(w, o, rep)
}

// untraced sets up o.setups times, keeps the last engine, and measures
// the closed loop for o.seconds (and at least the quality prefix).
// The bounded metrics are CPU times: on a shared host the hypervisor
// takes a varying share of wall time from the machine, which moves
// wall-clock figures by a third from one minute to the next, while the
// process's CPU time excludes that stolen time. Wall-clock throughput
// and latency go on the detail lines.
func untraced(w *workload, o options, rep *report) error {
	var (
		srv                 *server
		setupCPU, setupWall []float64
	)
	for k := 0; k < o.setups; k++ {
		if srv != nil {
			srv.close()
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		var err error
		if srv, err = newServer(w, o.workdir, o.clients, nil); err != nil {
			return err
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer srv.close()
	runtime.GC()
	c0 := cpuTime()
	ph := runPhase(srv.handler, w.Reqs, o.clients, o.duration, int64(w.Sizes.Quality), int64(w.Cycle), nil)
	cpu := cpuTime() - c0
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	rep.Sent = len(ph.Results)
	rep.Failed, rep.FirstErr = ph.failed()
	q := quality(w, ph.Results)
	rep.QualityReqs, rep.OutputDigest = q.n, q.digest
	rep.Correct = rep.Failed == 0 && q.n == w.Sizes.Quality

	n := len(ph.Results)
	lat := latencies(ph.Results)
	rep.Metrics = []metric{
		{"setup_s", median(setupCPU), "s", len(setupCPU)},
		{"cpu_ms_per_op", ms(cpu) / float64(max(n, 1)), "ms", n},
		{"heap_live_mb", float64(mem.HeapAlloc) / 1e6, "MB", 0},
		{"crossings_mean", q.crossings, "count", q.layouts},
		{"ph_pct_mean", q.ph, "%", q.layouts},
	}
	rep.Extra = []metric{
		{"setup_wall_s", median(setupWall), "s", len(setupWall)},
		{"ops_per_s", float64(n) / ph.Elapsed.Seconds(), "1/s", n},
		{"cpu_util", cpu.Seconds() / ph.Elapsed.Seconds(), "cores", 0},
		{"latency_p50_ms", percentile(lat, 0.50), "ms", len(lat)},
		{"latency_p95_ms", percentile(lat, 0.95), "ms", len(lat)},
		{"latency_p99_ms", percentile(lat, 0.99), "ms", len(lat)},
		{"qubit_violations_total", float64(q.violations), "count", q.layouts},
		{"fidelity_mean", q.fidelity, "ratio", q.fidelities},
	}
	return nil
}

// cpuTime is the process's CPU time, user plus system, over all its
// threads. Linux accounts it without the time the hypervisor stole.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced measures the closed loop untraced for half the run, then sets
// up a fresh engine with the store timing layer and replays the same
// requests with the tracer. Counts and ratios come from the untraced
// half (the tracer's re-invocations would add to the process-wide
// counters); times come from the traced replay.
func traced(w *workload, o options, rep *report) error {
	srv, err := newServer(w, o.workdir, o.clients, nil)
	if err != nil {
		return err
	}
	before := srv.eng.Stats()
	ph1 := runPhase(srv.handler, w.Reqs, o.clients, o.duration/2, 1, int64(w.Cycle), nil)
	counts := srv.eng.Stats()
	srv.close()

	spans := newSpanLog()
	if srv, err = newServer(w, o.workdir, o.clients, spans); err != nil {
		return err
	}
	defer srv.close()
	spans.reset()
	n := len(ph1.Results)
	tr := newTracer(spans, w.Reqs[:n], srv.warm)
	ph2 := runPhase(srv.handler, w.Reqs[:n], o.clients, 0, int64(n), 1, tr.after)
	if err := spans.write(filepath.Join(o.workdir, "spans-"+w.Name+".jsonl")); err != nil {
		return err
	}

	rep.Sent = len(ph1.Results) + len(ph2.Results)
	f1, e1 := ph1.failed()
	f2, e2 := ph2.failed()
	rep.Failed, rep.FirstErr = f1+f2, errors.Join(e1, e2)
	rep.Correct = rep.Failed == 0 && len(ph2.Results) == n
	rep.Metrics = layerMetrics(before, counts, ph1, ph2, spans, tr)
	return nil
}

func layerMetrics(before, after service.StatsSnapshot, ph1, ph2 phase, spans *spanLog, tr *tracer) []metric {
	n := len(ph2.Results)
	perReq := func(v float64) float64 { return v / float64(max(n, 1)) }
	tot, calls := spans.totals()
	var reqMs float64
	for _, r := range ph2.Results {
		reqMs += ms(r.Latency)
	}
	self := reqMs - tr.covered - tot["store.get"] - tot["store.put"]
	c := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	st := func(f func(s service.StatsSnapshot) int64) float64 { return float64(f(after) - f(before)) }
	untracedOps := float64(len(ph1.Results)) / ph1.Elapsed.Seconds()
	tracedOps := float64(n) / ph2.Elapsed.Seconds()
	layoutHits := st(func(s service.StatsSnapshot) int64 { return s.LayoutHits })
	gpHits := st(func(s service.StatsSnapshot) int64 { return s.GPHits })
	memHits := st(func(s service.StatsSnapshot) int64 { return s.Store.MemHits })
	diskHits := st(func(s service.StatsSnapshot) int64 { return s.Store.DiskHits })
	fast := c("delta.fast_repairs")
	return []metric{
		{"gplace.place_ms", perReq(tot["gplace.place"]), "ms", n},
		{"gplace.calls", float64(calls["gplace.place"]), "count", 0},
		{"topology.build_ms", perReq(tot["topology.build"]), "ms", n},
		{"qlegal.legalize_ms", perReq(tr.reported["qlegal.legalize"]), "ms", n},
		{"reslegal.legalize_ms", perReq(tr.reported["reslegal.legalize"]), "ms", n},
		{"dplace.refine_ms", perReq(tr.reported["dplace.refine"]), "ms", n},
		{"dplace.windows_per_wave", ratio(c("dplace.wave_windows"), c("dplace.waves")), "ratio", 0},
		{"store.get_ms", perReq(tot["store.get"]), "ms", n},
		{"store.put_ms", perReq(tot["store.put"]), "ms", n},
		{"store.disk_hit_share", ratio(diskHits, memHits+diskHits), "ratio", 0},
		{"store.promotions", st(func(s service.StatsSnapshot) int64 { return s.Store.Promotions }), "count", 0},
		{"store.spills", st(func(s service.StatsSnapshot) int64 { return s.Store.Spills }), "count", 0},
		{"metrics.analyze_ms", perReq(tot["metrics.analyze"]), "ms", n},
		{"layoutio.write_ms", perReq(tot["layoutio.write"]), "ms", n},
		{"layoutio.bytes", perReq(float64(tr.bytes)), "bytes", n},
		{"service.handler_self_ms", perReq(self), "ms", n},
		{"service.layout_hit_ratio", ratio(layoutHits, layoutHits+st(func(s service.StatsSnapshot) int64 { return s.LayoutMisses })), "ratio", 0},
		{"service.gp_hit_ratio", ratio(gpHits, gpHits+st(func(s service.StatsSnapshot) int64 { return s.GPMisses })), "ratio", 0},
		{"core.repair_ms", perReq(tot["core.repair"]), "ms", n},
		{"service.delta_fast_share", ratio(fast, fast+c("delta.warm_starts")+c("delta.cold_fallbacks")), "ratio", 0},
		{"fidelity.average_ms", perReq(tot["fidelity.average"]), "ms", n},
		{"fidelity.mappings", float64(tr.mappings), "count", 0},
		{"trace.request_ms", perReq(reqMs), "ms", n},
		{"trace.ops_per_s_untraced", untracedOps, "1/s", len(ph1.Results)},
		{"trace.ops_per_s_traced", tracedOps, "1/s", n},
		{"trace.overhead_pct", 100 * (untracedOps/tracedOps - 1), "%", 0},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// qualityStats summarizes the responses to the first Quality requests.
type qualityStats struct {
	n, layouts, fidelities int
	crossings, ph          float64
	violations             int
	fidelity               float64
	digest                 string
}

// quality reads Table III quality from the reports served to the first
// Quality requests, counting each distinct request once (a popular
// layout served many times counts once), and hashes those outputs.
func quality(w *workload, results []result) qualityStats {
	var q qualityStats
	q.n = min(w.Sizes.Quality, len(results))
	h := sha256.New()
	seen := map[string]bool{}
	for i, r := range results[:q.n] {
		if r.Err != nil {
			fmt.Fprintf(h, "%d error\n", i)
			continue
		}
		if r.HasLayout {
			fmt.Fprintf(h, "%d %x\n", i, r.LayoutHash)
		} else {
			fmt.Fprintf(h, "%d %x\n", i, math.Float64bits(r.Fidelity))
		}
		key := w.Reqs[i].Path + string(w.Reqs[i].Body)
		if seen[key] {
			continue
		}
		seen[key] = true
		if r.HasLayout {
			q.layouts++
			q.crossings += float64(r.Report.Crossings)
			q.ph += r.Report.Ph
			q.violations += r.Report.QubitViolations
		} else {
			q.fidelities++
			q.fidelity += r.Fidelity
		}
	}
	q.crossings = ratio(q.crossings, float64(q.layouts))
	q.ph = ratio(q.ph, float64(q.layouts))
	q.fidelity = ratio(q.fidelity, float64(q.fidelities))
	q.digest = hex.EncodeToString(h.Sum(nil))
	return q
}

func latencies(results []result) []float64 {
	out := make([]float64, 0, len(results))
	for _, r := range results {
		out = append(out, ms(r.Latency))
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// machine stamps the hardware and configuration into every result.
func machine(o options, w *workload) map[string]any {
	memTier := 0 // no memory tier: the engine's single memory store
	if w.Tiered {
		memTier = w.Sizes.MemTier
	}
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu":         cpuModel(),
		"go":          runtime.Version(),
		"workers":     runtime.GOMAXPROCS(0),
		"clients":     o.clients,
		"setups":      o.setups,
		"mem_tier":    memTier,
		"run_seconds": o.seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable lines, one JSON detail line, and the
// result line, which is always last.
func (r *report) print(w io.Writer) error {
	mode := 0
	if r.Trace {
		mode = 1
	}
	fmt.Fprintf(w, "servebench workload=%s seed=%d trace=%d\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "machine %v\n", r.Machine)
	fmt.Fprintf(w, "input_digest %s\n", r.InputDigest)
	if r.OutputDigest != "" {
		fmt.Fprintf(w, "output_digest %s (first %d requests)\n", r.OutputDigest, r.QualityReqs)
	}
	fmt.Fprintf(w, "requests sent=%d succeeded=%d failed=%d\n", r.Sent, r.Sent-r.Failed, r.Failed)
	all := append(append([]metric(nil), r.Metrics...), r.Extra...)
	for _, m := range all {
		if m.Samples > 0 {
			fmt.Fprintf(w, "metric %-26s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "metric %-26s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	type value struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples,omitempty"`
	}
	detail := map[string]value{}
	for _, m := range all {
		detail[m.Name] = value{m.Value, m.Unit, m.Samples}
	}
	line, err := json.Marshal(map[string]any{
		"detail":        true,
		"workload":      r.Workload,
		"seed":          r.Seed,
		"trace":         mode,
		"machine":       r.Machine,
		"input_digest":  r.InputDigest,
		"output_digest": r.OutputDigest,
		"quality_reqs":  r.QualityReqs,
		"metrics":       detail,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	result := map[string]value{}
	for _, m := range r.Metrics {
		result[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err = json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Sent, r.Failed, result})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
