package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/layoutio"
	"repro/internal/netlist"
	"repro/internal/qlegal"
)

// result is what the benchmark keeps of one response.
type result struct {
	Latency time.Duration
	Err     error
	// Layout responses (layout and delta).
	HasLayout  bool
	LayoutHash [32]byte
	Report     servedReport
	CacheHit   bool
	Shared     bool
	DeltaPath  string
	TqMs       float64
	TeMs       float64
	DpMs       float64
	// Fidelity responses.
	Fidelity float64
}

// servedReport is the part of metrics.Report the benchmark reads: Table III
// crossings X and hotspot proportion P_h, and the spatial-violation
// count.
type servedReport struct {
	Crossings       int
	Ph              float64
	QubitViolations int
}

// layoutBody is the part of a /v1/layout or /v1/layout/delta response
// the checks read.
type layoutBody struct {
	CacheHit  bool            `json:"cache_hit"`
	Shared    bool            `json:"shared"`
	DeltaPath string          `json:"delta_path"`
	Report    servedReport    `json:"report"`
	TqMs      float64         `json:"tq_ms"`
	TeMs      float64         `json:"te_ms"`
	DpMs      float64         `json:"dp_ms"`
	Layout    json.RawMessage `json:"layout"`
}

type fidelityBody struct {
	Fidelity float64 `json:"fidelity"`
	CacheHit bool    `json:"cache_hit"`
	Shared   bool    `json:"shared"`
}

// checker validates responses. Identical bodies are checked once: a
// body hash already seen is a body already validated. With keep set it
// also keeps each decoded netlist for the traced run.
type checker struct {
	keep bool
	mu   sync.Mutex
	seen map[[32]byte]checked
}

type checked struct {
	r result
	n *netlist.Netlist
}

func newChecker(keep bool) *checker { return &checker{keep: keep, seen: map[[32]byte]checked{}} }

// check validates one response: status 200; for layouts, a body that
// layoutio.ReadJSON decodes and whose qlegal.Verify count equals the
// report's QubitViolations; for fidelity, a value in [0, 1]. It returns
// the decoded layout, which is nil for a repeated body unless keep is
// set.
func (c *checker) check(req *request, rec *httptest.ResponseRecorder) (result, *netlist.Netlist) {
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		return result{Err: fmt.Errorf("%s: status %d: %.200s", req.Path, rec.Code, body)}, nil
	}
	sum := sha256.Sum256(body)
	c.mu.Lock()
	prev, ok := c.seen[sum]
	c.mu.Unlock()
	if ok {
		return prev.r, prev.n
	}
	r, n := decode(req, body)
	if r.Err == nil {
		kept := checked{r: r}
		if c.keep {
			kept.n = n
		}
		c.mu.Lock()
		c.seen[sum] = kept
		c.mu.Unlock()
	}
	return r, n
}

func decode(req *request, body []byte) (result, *netlist.Netlist) {
	if req.Kind == kindFidelity {
		var fb fidelityBody
		if err := json.Unmarshal(body, &fb); err != nil {
			return result{Err: fmt.Errorf("%s: %w", req.Path, err)}, nil
		}
		if math.IsNaN(fb.Fidelity) || fb.Fidelity < 0 || fb.Fidelity > 1 {
			return result{Err: fmt.Errorf("%s: fidelity %v outside [0,1]", req.Path, fb.Fidelity)}, nil
		}
		return result{Fidelity: fb.Fidelity, CacheHit: fb.CacheHit, Shared: fb.Shared}, nil
	}
	var lb layoutBody
	if err := json.Unmarshal(body, &lb); err != nil {
		return result{Err: fmt.Errorf("%s: %w", req.Path, err)}, nil
	}
	n, err := layoutio.ReadJSON(bytes.NewReader(lb.Layout))
	if err != nil {
		return result{Err: fmt.Errorf("%s: %w", req.Path, err)}, nil
	}
	spacing := core.DefaultConfig().Metrics.MinQubitSpacing
	if v := qlegal.Verify(n, spacing); v != lb.Report.QubitViolations {
		return result{Err: fmt.Errorf("%s: qlegal.Verify counts %d violations, report says %d", req.Path, v, lb.Report.QubitViolations)}, nil
	}
	return result{
		HasLayout:  true,
		LayoutHash: sha256.Sum256(lb.Layout),
		Report:     lb.Report,
		CacheHit:   lb.CacheHit,
		Shared:     lb.Shared,
		DeltaPath:  lb.DeltaPath,
		TqMs:       lb.TqMs,
		TeMs:       lb.TeMs,
		DpMs:       lb.DpMs,
	}, n
}

// phase is one closed-loop run over a request list.
type phase struct {
	Results []result // one per sent request, in list order
	Elapsed time.Duration
}

// runPhase drives h with `clients` closed-loop clients. Each client
// takes the next request of the list, calls ServeHTTP, checks the
// response, and only then takes another. Once minDur has passed and at
// least minReqs were taken, the run stops at the next multiple of
// cycle, so the sent requests are always a prefix of the list made of
// whole cycles (or the whole list). after, when non-nil, runs on the
// client after each check (the traced run re-invokes layer functions
// there).
func runPhase(h http.Handler, reqs []request, clients int, minDur time.Duration, minReqs, cycle int64,
	after func(i int, start time.Time, r *result, n *netlist.Netlist)) phase {
	results := make([]result, len(reqs))
	chk := newChecker(after != nil)
	var (
		next   atomic.Int64
		stopAt atomic.Int64
		wg     sync.WaitGroup
	)
	stopAt.Store(int64(len(reqs)))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= minReqs && time.Since(start) >= minDur {
					end := (i + cycle - 1) / cycle * cycle
					for {
						cur := stopAt.Load()
						if end >= cur || stopAt.CompareAndSwap(cur, end) {
							break
						}
					}
				}
				if i >= stopAt.Load() {
					return
				}
				req := &reqs[i]
				hr := httptest.NewRequest(http.MethodGet, req.Path, nil)
				if req.Body != nil {
					hr = httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
				}
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, hr)
				lat := time.Since(t0)
				r, n := chk.check(req, rec)
				r.Latency = lat
				if after != nil && r.Err == nil {
					after(int(i), t0, &r, n)
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	return phase{Results: results[:stopAt.Load()], Elapsed: time.Since(start)}
}

func (p phase) failed() (n int, first error) {
	for _, r := range p.Results {
		if r.Err != nil {
			if first == nil {
				first = r.Err
			}
			n++
		}
	}
	return n, first
}
