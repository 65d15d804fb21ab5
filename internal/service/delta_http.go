package service

// HTTP surface of the delta engine:
//
//	POST /v1/layout/delta   incremental layout (base request + edit list)
//	GET  /v1/envelope       cluster mode: one layout envelope by store key
//
// The delta endpoint is ring-routed by the DELTA key (the repaired
// result is a first-class cache entry, owned like any layout), which
// requires the POST body to be replayable: routedDeltaHandler buffers
// it once and installs GetBody so a forward retry re-sends intact.
// /v1/envelope is the peer-to-peer base-fetch and read-repair carrier;
// it serves bytes straight from the local store and never computes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/kernstats"
	"repro/internal/layoutio"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/topology"
)

// maxDeltaBodyBytes bounds one POST /v1/layout/delta body. Edit lists
// are tiny; the bound exists so the routing layer can buffer bodies
// without trusting the client.
const maxDeltaBodyBytes = 1 << 20

// deltaSpec is the POST /v1/layout/delta body: a jobSpecItem-shaped
// base request plus the edit list.
type deltaSpec struct {
	Topology string          `json:"topology"`
	Strategy string          `json:"strategy,omitempty"`
	Config   *core.Config    `json:"config,omitempty"`
	Seed     *int64          `json:"seed,omitempty"`
	Mappings *int            `json:"mappings,omitempty"`
	Padding  *float64        `json:"padding,omitempty"`
	Edits    []topology.Edit `json:"edits"`
}

// deltaRequestFromBody decodes and validates a delta body into the
// engine request, building the base config exactly like the query and
// jobs APIs (shared validators — the base key must match what a plain
// /v1/layout request for the same parameters would hash to).
func deltaRequestFromBody(body io.Reader) (DeltaRequest, error) {
	var spec deltaSpec
	if err := json.NewDecoder(io.LimitReader(body, maxDeltaBodyBytes)).Decode(&spec); err != nil {
		return DeltaRequest{}, fmt.Errorf("bad delta body: %w", err)
	}
	strategy, err := resolveTarget(spec.Topology, spec.Strategy)
	if err != nil {
		return DeltaRequest{}, err
	}
	cfg := core.DefaultConfig()
	if spec.Config != nil {
		cfg = *spec.Config
		m, p := cfg.Mappings, cfg.GP.Padding
		if err := applyConfigOverrides(&cfg, nil, &m, &p); err != nil {
			return DeltaRequest{}, err
		}
	}
	if err := applyConfigOverrides(&cfg, spec.Seed, spec.Mappings, spec.Padding); err != nil {
		return DeltaRequest{}, err
	}
	if len(spec.Edits) == 0 {
		return DeltaRequest{}, errors.New("missing edits")
	}
	// Validate the edit list here so a malformed list is the client's
	// 400, not an engine error surfacing as a 500. The engine
	// re-canonicalizes (idempotent) for its cache key.
	dev, err := topology.ByName(spec.Topology)
	if err != nil {
		return DeltaRequest{}, err
	}
	if _, err := topology.Canonicalize(dev, spec.Edits); err != nil {
		return DeltaRequest{}, fmt.Errorf("bad edit list: %w", err)
	}
	return DeltaRequest{
		LayoutRequest: LayoutRequest{Topology: spec.Topology, Strategy: strategy, Config: cfg},
		Edits:         spec.Edits,
	}, nil
}

// deltaResponse is the /v1/layout/delta body: the layout response plus
// which repair path produced it.
type deltaResponse struct {
	Topology    string            `json:"topology"`
	Strategy    core.Strategy     `json:"strategy"`
	Seed        int64             `json:"seed"`
	CacheHit    bool              `json:"cache_hit"`
	Shared      bool              `json:"shared"`
	Path        string            `json:"delta_path,omitempty"`
	Report      metrics.Report    `json:"report"`
	QubitMs     float64           `json:"tq_ms"`
	ResonatorMs float64           `json:"te_ms"`
	DPMs        float64           `json:"dp_ms"`
	Layout      layoutio.Document `json:"layout"`
	TraceID     string            `json:"trace_id,omitempty"`
	Trace       *obs.SpanNode     `json:"trace,omitempty"`
}

func handleLayoutDelta(e *Engine, w http.ResponseWriter, r *http.Request) {
	req, err := deltaRequestFromBody(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := e.LayoutDelta(r.Context(), req)
	if err != nil {
		writeRequestError(e, r.Context(), w, err)
		return
	}
	lay := res.Layout
	resp := deltaResponse{
		Topology:    req.Topology,
		Strategy:    req.Strategy,
		Seed:        req.Config.GP.Seed,
		CacheHit:    res.CacheHit,
		Shared:      res.Shared,
		Path:        res.Path,
		Report:      lay.Report,
		QubitMs:     float64(lay.QubitTime.Nanoseconds()) / 1e6,
		ResonatorMs: float64(lay.ResonatorTime.Nanoseconds()) / 1e6,
		DPMs:        float64(lay.DPTime.Nanoseconds()) / 1e6,
		Layout:      layoutio.NewDocument(lay.Netlist),
	}
	if r.URL.Query().Get("debug") == "trace" {
		if sp := obs.SpanFrom(r.Context()); sp != nil {
			snap := sp.Trace().Snapshot()
			resp.TraceID = snap.ID
			resp.Trace = snap.Root
		}
	}
	writeEncoded(r.Context(), w, resp)
}

// routedDeltaHandler ring-routes POST /v1/layout/delta by the delta
// key. The body is buffered up front: the key needs it, the local
// handler re-reads it, and a forward (plus its one retry) replays it
// via GetBody. An unparseable body skips routing — the local handler
// owns the 400.
func routedDeltaHandler(e *Engine, local http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(io.LimitReader(r.Body, maxDeltaBodyBytes+1))
		if err != nil || len(data) > maxDeltaBodyBytes {
			writeError(w, http.StatusBadRequest, errors.New("unreadable or oversized delta body"))
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(data))
		r.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		}
		req, err := deltaRequestFromBody(bytes.NewReader(data))
		if err != nil {
			local(w, r)
			return
		}
		dev, err := topology.ByName(req.Topology)
		if err != nil {
			local(w, r)
			return
		}
		edits, err := topology.Canonicalize(dev, req.Edits)
		if err != nil {
			local(w, r)
			return
		}
		dkey := deltaKey(layoutKey(req.LayoutRequest), edits)
		serveRouted(e, w, r, dkey, func() bool {
			_, ok := e.layStore.Peek(dkey)
			return ok
		}, local, nil)
	}
}

// handleEnvelope serves GET /v1/envelope?key=...: the versioned store
// envelope for one locally held layout key. 404 when this replica does
// not hold the key — the caller tries the next owner or recomputes.
func handleEnvelope(e *Engine, w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if !strings.HasPrefix(key, "layout:") {
		writeError(w, http.StatusBadRequest, errors.New("not a layout key"))
		return
	}
	lay, ok := e.layStore.Peek(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("key not held"))
		return
	}
	data, err := store.EncodeEnvelope(key, lay)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// readRepair pulls the envelope for key from the owner that just
// served a forwarded request and stores it locally, so the next
// request for the same key short-circuits without a network hop.
// Fire-and-forget on the forwarding replica; bounded by the forward
// timeout; a miss or failure simply leaves the local store as-is.
func (e *Engine) readRepair(owner, key string) {
	if storeHas(e.layStore, key) {
		return
	}
	lay, err := fetchEnvelope(context.Background(), e.cluster, owner, key)
	if err != nil {
		return
	}
	if storeHas(e.layStore, key) {
		return // raced with replication — either copy is the same bytes
	}
	e.layStore.Put(key, lay)
	kernstats.ClusterReadRepair.Add(1)
}
