package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gplace"
	"repro/internal/layoutio"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/topology"
)

// span is one timed call into a layer. Req is the request's index in
// the list, or -1 for store calls, which the engine makes on behalf of
// whichever request is running.
type span struct {
	Req   int    `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// reset drops every span, so set-up store calls do not count.
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = nil
	l.mu.Unlock()
}

// record keeps one span.
func (l *spanLog) record(req int, name string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Req: req, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	l.mu.Unlock()
}

// add records a span that started at start and ends now, and returns
// its duration.
func (l *spanLog) add(req int, name string, start time.Time) time.Duration {
	end := time.Now()
	l.record(req, name, start, end)
	return end.Sub(start)
}

// timed runs f inside a span and returns its duration.
func (l *spanLog) timed(req int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	return l.add(req, name, start)
}

// totals sums span durations and counts spans per name.
func (l *spanLog) totals() (ms map[string]float64, n map[string]int) {
	ms, n = map[string]float64{}, map[string]int{}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		ms[s.Name] += float64(s.End-s.Start) / 1e6
		n[s.Name]++
	}
	return ms, n
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		enc.Encode(s) // bufio errors surface at Flush
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer is the traced run's per-response hook. Around each request the
// benchmark records a "request" span; where a handler's internal call
// cannot be timed from outside, it re-invokes that module's public
// function on the request's own inputs and records the span:
//
//   - topology.Build and gplace.Place, once per (topology, seed), the
//     GP solution the engine computed and shared among strategies;
//   - core.Analyze and layoutio.WriteJSON on every layout response;
//   - core.Repair on every fast-path delta;
//   - core.AverageFidelity on every computed fidelity value.
//
// Qubit, resonator and detailed-placement times are read from the
// response's tq_ms/te_ms/dp_ms, which the pipeline measures itself, on
// responses that computed their layout.
type tracer struct {
	spans *spanLog
	reqs  []request

	mu       sync.Mutex
	lays     map[target]*core.Layout     // warmed or re-legalized layouts
	gps      map[target]*netlist.Netlist // GP solutions by (topology, seed)
	gpSeen   map[target]bool
	reported map[string]float64 // ms read from responses, by layer
	covered  float64            // ms of request time covered by timed layers
	mappings int
	bytes    int64
}

// newTracer takes ownership of warm, the set-up's layouts.
func newTracer(spans *spanLog, reqs []request, warm map[target]*core.Layout) *tracer {
	return &tracer{spans: spans, reqs: reqs, lays: warm, gps: map[target]*netlist.Netlist{},
		gpSeen: map[target]bool{}, reported: map[string]float64{}}
}

// layout returns the layout a fidelity request scores: a warmed one,
// or one the tracer legalizes itself (untimed) from its own GP
// solution, exactly as the engine computed it.
func (t *tracer) layout(tg target) (*core.Layout, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lay := t.lays[tg]; lay != nil {
		return lay, nil
	}
	cfg := tg.config()
	gpt := target{Topology: tg.Topology, Seed: tg.Seed}
	gp := t.gps[gpt]
	if gp == nil {
		dev, err := topology.ByName(tg.Topology)
		if err != nil {
			return nil, err
		}
		gp = core.Prepare(dev, cfg)
		t.gps[gpt] = gp
	}
	lay, err := core.Legalize(gp, tg.Strategy, cfg)
	if err != nil {
		return nil, fmt.Errorf("fidelity layout %+v: %w", tg, err)
	}
	t.lays[tg] = lay
	return lay, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// after runs on the client once request i's response has passed its
// checks. A re-invocation that fails or disagrees with the response
// fails the request.
func (t *tracer) after(i int, start time.Time, r *result, n *netlist.Netlist) {
	req := &t.reqs[i]
	t.spans.record(i, "request", start, start.Add(r.Latency))
	computed := !r.CacheHit && !r.Shared
	cfg := req.Target.config()
	var (
		covered float64
		errs    []error
	)
	step := func(d float64, err error) {
		covered += d
		if err != nil {
			errs = append(errs, err)
		}
	}
	if req.Kind == kindLayout && computed {
		step(t.globalPlacement(i, req, cfg))
	}
	if r.HasLayout && computed {
		t.mu.Lock()
		t.reported["qlegal.legalize"] += r.TqMs
		t.reported["reslegal.legalize"] += r.TeMs
		t.reported["dplace.refine"] += r.DpMs
		t.mu.Unlock()
		if req.Kind == kindDelta && r.DeltaPath == "fast" {
			// The repair span covers the regional re-legalization and
			// detailed placement the response reports.
			step(t.repair(i, req, cfg))
		} else {
			step(r.TqMs+r.TeMs+r.DpMs, nil)
		}
	}
	if n != nil {
		step(t.analyzeAndWrite(i, r, n, cfg))
	}
	if req.Kind == kindFidelity && computed {
		step(t.fidelity(i, req, cfg, r.Fidelity))
	}
	t.mu.Lock()
	t.covered += covered
	t.mu.Unlock()
	r.Err = errors.Join(errs...)
}

// globalPlacement re-runs topology.Build and gplace.Place for the
// first request of each (topology, seed): the engine computes that GP
// solution once and every strategy legalizes a clone of it.
func (t *tracer) globalPlacement(i int, req *request, cfg core.Config) (float64, error) {
	gpt := req.Target
	gpt.Strategy = ""
	t.mu.Lock()
	first := !t.gpSeen[gpt]
	t.gpSeen[gpt] = true
	t.mu.Unlock()
	if !first {
		return 0, nil
	}
	dev, err := topology.ByName(req.Target.Topology)
	if err != nil {
		return 0, err
	}
	var gp *netlist.Netlist
	d := t.spans.timed(i, "topology.build", func() { gp = topology.Build(dev, cfg.Build) })
	d += t.spans.timed(i, "gplace.place", func() { gplace.Place(gp, cfg.GP) })
	return ms(d), nil
}

// analyzeAndWrite re-runs core.Analyze, which must reproduce the served
// report, and layoutio.WriteJSON on the served layout.
func (t *tracer) analyzeAndWrite(i int, r *result, n *netlist.Netlist, cfg core.Config) (float64, error) {
	var rep metrics.Report
	d := t.spans.timed(i, "metrics.analyze", func() { rep = core.Analyze(n, cfg) })
	var buf bytes.Buffer
	var err error
	d += t.spans.timed(i, "layoutio.write", func() { err = layoutio.WriteJSON(&buf, n) })
	t.mu.Lock()
	t.bytes += int64(buf.Len())
	t.mu.Unlock()
	if err == nil && (rep.Crossings != r.Report.Crossings || rep.Ph != r.Report.Ph || rep.QubitViolations != r.Report.QubitViolations) {
		err = fmt.Errorf("%s: served report X=%d Ph=%v V=%d, recomputed X=%d Ph=%v V=%d", t.reqs[i].Path,
			r.Report.Crossings, r.Report.Ph, r.Report.QubitViolations, rep.Crossings, rep.Ph, rep.QubitViolations)
	}
	return ms(d), err
}

// repair re-runs core.Repair on the warmed base with the canonical edit
// list.
func (t *tracer) repair(i int, req *request, cfg core.Config) (float64, error) {
	t.mu.Lock()
	base := t.lays[req.Target]
	t.mu.Unlock()
	if base == nil {
		return 0, fmt.Errorf("repair %+v: no warmed base", req.Target)
	}
	dev, err := topology.ByName(req.Target.Topology)
	if err != nil {
		return 0, err
	}
	edits, err := topology.Canonicalize(dev, req.Edits)
	if err != nil {
		return 0, err
	}
	d := t.spans.timed(i, "core.repair", func() { _, _, err = core.Repair(base, req.Target.Strategy, cfg, edits) })
	if err != nil {
		err = fmt.Errorf("repair %+v: %w", req.Target, err)
	}
	return ms(d), err
}

// fidelity re-runs core.AverageFidelity on the request's layout, which
// must reproduce the served value.
func (t *tracer) fidelity(i int, req *request, cfg core.Config, served float64) (float64, error) {
	lay, err := t.layout(req.Target)
	if err != nil {
		return 0, err
	}
	var f float64
	d := t.spans.timed(i, "fidelity.average", func() { f, err = core.AverageFidelity(lay.Netlist, req.Bench, cfg) })
	t.mu.Lock()
	t.mappings += cfg.Mappings
	t.mu.Unlock()
	if err == nil && f != served {
		err = fmt.Errorf("%s: served fidelity %v, recomputed %v", req.Path, served, f)
	}
	return ms(d), err
}
