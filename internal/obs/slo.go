package obs

// SLO burn-rate tracking over multi-window rolling counters.
//
// An objective is declared with the grammar
//
//	latency:p99:250ms:99.9    — 99.9% of requests complete within 250ms
//	fidelity:min:0.97:99      — 99% of layouts score Eq. 7 fidelity ≥ 0.97
//
// and evaluated event-wise: every observation is classified good or
// bad against the threshold, and compliance is counted over two
// rolling windows (5m in 10s slots, 1h in 60s slots — the classic
// fast/slow burn pair). The burn rate of a window is
//
//	burn = badFraction / errorBudget,  errorBudget = 1 - target/100
//
// so burn 1.0 consumes the budget exactly at the sustainable rate and
// burn ≥ 14.4 on the fast window (the usual page threshold) exhausts a
// 30-day budget in under 2 days. The quantile token ("p99") names the
// objective; compliance itself is event-based, which is what makes
// windows and replicas addable.
//
// Observe is allocation-free (a mutex and integer arithmetic), so SLO
// scoring can sit on the request fast path under the zero-alloc CI
// guard.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO kinds.
const (
	SLOLatency  = "latency"
	SLOFidelity = "fidelity"
)

// Window names, fast to slow.
const (
	WindowFast = "5m"
	WindowSlow = "1h"
)

// minSLOEvents is the fast-window sample floor below which burn is not
// trusted for health degradation — one bad request out of one must not
// flip /healthz.
const minSLOEvents = 5

// DefaultBurnAlert is the fast-window burn-rate threshold above which
// /healthz reports degraded: the standard 14.4 (a 30-day budget gone
// in 2 days).
const DefaultBurnAlert = 14.4

// SLOSpec is one parsed objective.
type SLOSpec struct {
	// Raw is the spec string as given ("latency:p99:250ms:99.9").
	Raw string `json:"raw"`
	// Name is the label-safe identity ("latency_p99_250ms") used as
	// the slo label value and for cross-replica merging.
	Name string `json:"name"`
	// Kind is SLOLatency or SLOFidelity.
	Kind string `json:"kind"`
	// Threshold is the good/bad cut: seconds for latency (at most),
	// Eq. 7 fidelity for fidelity (at least).
	Threshold float64 `json:"threshold"`
	// Target is the compliance objective in percent (0, 100).
	Target float64 `json:"target_pct"`
}

// ParseSLO parses the -slo grammar: kind:qualifier:threshold:target.
// Numbers must be finite: a NaN target would make the error budget NaN,
// which neither burn arithmetic nor JSON encoding can carry.
func ParseSLO(s string) (SLOSpec, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) != 4 {
		return SLOSpec{}, fmt.Errorf("slo %q: want kind:qualifier:threshold:target", s)
	}
	kind, qual, thr, tgt := parts[0], parts[1], parts[2], parts[3]
	target, err := strconv.ParseFloat(tgt, 64)
	if err != nil || math.IsNaN(target) || target <= 0 || target >= 100 {
		return SLOSpec{}, fmt.Errorf("slo %q: target %q must be a percentage in (0, 100)", s, tgt)
	}
	spec := SLOSpec{Raw: s, Kind: kind, Target: target}
	switch kind {
	case SLOLatency:
		if len(qual) < 2 || qual[0] != 'p' {
			return SLOSpec{}, fmt.Errorf("slo %q: latency qualifier %q must be pNN", s, qual)
		}
		if q, err := strconv.ParseFloat(qual[1:], 64); err != nil || math.IsNaN(q) || q <= 0 || q > 100 {
			return SLOSpec{}, fmt.Errorf("slo %q: latency qualifier %q must be pNN", s, qual)
		}
		d, err := time.ParseDuration(thr)
		if err != nil || d <= 0 {
			return SLOSpec{}, fmt.Errorf("slo %q: bad latency threshold %q", s, thr)
		}
		spec.Threshold = d.Seconds()
	case SLOFidelity:
		if qual != "min" {
			return SLOSpec{}, fmt.Errorf("slo %q: fidelity qualifier must be \"min\"", s)
		}
		f, err := strconv.ParseFloat(thr, 64)
		if err != nil || math.IsNaN(f) || f <= 0 || f > 1 {
			return SLOSpec{}, fmt.Errorf("slo %q: fidelity floor %q must be in (0, 1]", s, thr)
		}
		spec.Threshold = f
	default:
		return SLOSpec{}, fmt.Errorf("slo %q: unknown kind %q (want latency or fidelity)", s, kind)
	}
	spec.Name = labelSafe(kind + "_" + qual + "_" + thr)
	return spec, nil
}

// labelSafe maps a spec fragment to a label-value-safe identity.
func labelSafe(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sloWindow is one rolling good/bad counter: fixed slots shifted in
// place as time advances (the admission shed-window pattern). All
// methods take the wall time so tests can drive the clock.
type sloWindow struct {
	mu     sync.Mutex
	slotNs int64
	n      int
	base   int64 // absolute slot number of slots[n-1]
	good   [60]int64
	bad    [60]int64
}

func newSLOWindow(slot time.Duration, n int) *sloWindow {
	if n > 60 {
		n = 60
	}
	return &sloWindow{slotNs: int64(slot), n: n}
}

// advanceLocked shifts the rings so slots[n-1] is the slot containing
// nowNs. Callers hold w.mu.
func (w *sloWindow) advanceLocked(nowNs int64) {
	s := nowNs / w.slotNs
	d := s - w.base
	if d <= 0 {
		if w.base == 0 {
			w.base = s
		}
		return
	}
	if d >= int64(w.n) {
		for i := 0; i < w.n; i++ {
			w.good[i], w.bad[i] = 0, 0
		}
	} else {
		copy(w.good[:w.n], w.good[d:int64(w.n)])
		copy(w.bad[:w.n], w.bad[d:int64(w.n)])
		for i := w.n - int(d); i < w.n; i++ {
			w.good[i], w.bad[i] = 0, 0
		}
	}
	w.base = s
}

func (w *sloWindow) record(nowNs int64, good bool) {
	w.mu.Lock()
	w.advanceLocked(nowNs)
	if good {
		w.good[w.n-1]++
	} else {
		w.bad[w.n-1]++
	}
	w.mu.Unlock()
}

func (w *sloWindow) totals(nowNs int64) (good, bad int64) {
	w.mu.Lock()
	w.advanceLocked(nowNs)
	for i := 0; i < w.n; i++ {
		good += w.good[i]
		bad += w.bad[i]
	}
	w.mu.Unlock()
	return good, bad
}

// sloState is one objective's live windows.
type sloState struct {
	spec SLOSpec
	fast *sloWindow
	slow *sloWindow
}

// SLOTracker scores observations against a set of objectives. A nil
// tracker is safe: every method is a no-op, so the engine runs with no
// SLOs configured at zero cost.
type SLOTracker struct {
	slos []sloState
}

// NewSLOTracker builds a tracker for the given objectives.
func NewSLOTracker(specs []SLOSpec) *SLOTracker {
	if len(specs) == 0 {
		return nil
	}
	t := &SLOTracker{slos: make([]sloState, len(specs))}
	for i, sp := range specs {
		t.slos[i] = sloState{
			spec: sp,
			fast: newSLOWindow(10*time.Second, 30), // 5m
			slow: newSLOWindow(time.Minute, 60),    // 1h
		}
	}
	return t
}

// Specs returns the tracked objectives.
func (t *SLOTracker) Specs() []SLOSpec {
	if t == nil {
		return nil
	}
	out := make([]SLOSpec, len(t.slos))
	for i := range t.slos {
		out[i] = t.slos[i].spec
	}
	return out
}

// ObserveLatency scores one request latency against every latency
// objective. Allocation-free.
func (t *SLOTracker) ObserveLatency(d time.Duration) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	sec := d.Seconds()
	for i := range t.slos {
		s := &t.slos[i]
		if s.spec.Kind != SLOLatency {
			continue
		}
		good := sec <= s.spec.Threshold
		s.fast.record(now, good)
		s.slow.record(now, good)
	}
}

// ObserveFidelity scores one layout's Eq. 7 fidelity against every
// fidelity-floor objective. Allocation-free.
func (t *SLOTracker) ObserveFidelity(f float64) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	for i := range t.slos {
		s := &t.slos[i]
		if s.spec.Kind != SLOFidelity {
			continue
		}
		good := f >= s.spec.Threshold
		s.fast.record(now, good)
		s.slow.record(now, good)
	}
}

// SLOState is one (objective, window) row: raw good/total counts (so
// replicas merge by addition) plus the derived burn rate.
type SLOState struct {
	SLO         string  `json:"slo"`
	Spec        string  `json:"spec"`
	Kind        string  `json:"kind"`
	Window      string  `json:"window"`
	Target      float64 `json:"target_pct"`
	Good        int64   `json:"good"`
	Total       int64   `json:"total"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
}

func deriveBurn(s *SLOState) {
	if s.Total > 0 {
		s.BadFraction = float64(s.Total-s.Good) / float64(s.Total)
	} else {
		s.BadFraction = 0
	}
	budget := 1 - s.Target/100
	if budget > 0 {
		s.BurnRate = s.BadFraction / budget
	}
}

// Snapshot returns two rows per objective (fast window first), sorted
// by (slo, window) for deterministic scrapes and merges.
func (t *SLOTracker) Snapshot() []SLOState {
	if t == nil {
		return nil
	}
	now := time.Now().UnixNano()
	out := make([]SLOState, 0, 2*len(t.slos))
	for i := range t.slos {
		s := &t.slos[i]
		for _, wr := range []struct {
			name string
			w    *sloWindow
		}{{WindowFast, s.fast}, {WindowSlow, s.slow}} {
			good, bad := wr.w.totals(now)
			row := SLOState{
				SLO:    s.spec.Name,
				Spec:   s.spec.Raw,
				Kind:   s.spec.Kind,
				Window: wr.name,
				Target: s.spec.Target,
				Good:   good,
				Total:  good + bad,
			}
			deriveBurn(&row)
			out = append(out, row)
		}
	}
	sortSLOStates(out)
	return out
}

func sortSLOStates(rows []SLOState) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SLO != rows[j].SLO {
			return rows[i].SLO < rows[j].SLO
		}
		// Fast window sorts before slow.
		return windowRank(rows[i].Window) < windowRank(rows[j].Window)
	})
}

func windowRank(w string) int {
	if w == WindowFast {
		return 0
	}
	return 1
}

// MaxFastBurn returns the highest fast-window burn rate across
// objectives with at least minSLOEvents samples, or 0.
func (t *SLOTracker) MaxFastBurn() float64 {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	var max float64
	for i := range t.slos {
		s := &t.slos[i]
		good, bad := s.fast.totals(now)
		total := good + bad
		if total < minSLOEvents {
			continue
		}
		row := SLOState{Target: s.spec.Target, Good: good, Total: total}
		deriveBurn(&row)
		if row.BurnRate > max {
			max = row.BurnRate
		}
	}
	return max
}

// FastBurnExceeded reports whether any objective's fast-window burn is
// at or above alert (with the sample floor applied).
func (t *SLOTracker) FastBurnExceeded(alert float64) bool {
	if t == nil || alert <= 0 {
		return false
	}
	return t.MaxFastBurn() >= alert
}

// MergeSLOs folds SLO rows from several replicas, summing good/total
// by (slo, window) and re-deriving burn. Targets are assumed uniform
// across the fleet (same -slo flags); the first row's metadata wins.
func MergeSLOs(tables ...[]SLOState) []SLOState {
	type key struct{ slo, window string }
	acc := map[key]SLOState{}
	for _, table := range tables {
		for _, row := range table {
			k := key{row.SLO, row.Window}
			m, ok := acc[k]
			if !ok {
				m = row
				m.Good, m.Total = 0, 0
			}
			m.Good += row.Good
			m.Total += row.Total
			acc[k] = m
		}
	}
	out := make([]SLOState, 0, len(acc))
	for _, row := range acc {
		deriveBurn(&row)
		out = append(out, row)
	}
	sortSLOStates(out)
	return out
}
