package store

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/layoutio"
	"repro/internal/metrics"
	"repro/internal/qlegal"
)

// The layout envelope: the versioned JSON wrapper that carries a
// computed layout outside the process — one file per entry on the disk
// tier, and the body of a cross-replica /v1/replicate push. Keeping
// one codec for both means a replicated entry is byte-identical to the
// spill the owner wrote locally, so disk-less fleets and shared-dir
// fleets serve the same bytes.

// envelopeVersion guards the envelope (key, timings, report, netlist
// wrapper). The netlist payload inside is additionally guarded by
// layoutio.SchemaVersion; a mismatch at either level discards the
// entry. Version 2 added the stored quality report: a version-1 entry
// has none, so it is a miss and its layout is recomputed once.
const envelopeVersion = 2

// diskEntry is the envelope schema: the layout netlist as a layoutio
// document plus the layout metadata that must survive a restart
// (timings feed the API's tq_ms/te_ms fields; the qubit-legalization
// result feeds displacement reporting; the report is the response's
// Table III block).
type diskEntry struct {
	Version     int               `json:"version"`
	Key         string            `json:"key"`
	QubitNs     int64             `json:"tq_ns"`
	ResonatorNs int64             `json:"te_ns"`
	DPNs        int64             `json:"dp_ns"`
	QubitResult qlegal.Result     `json:"qubit_result"`
	Report      *metrics.Report   `json:"report"`
	Netlist     layoutio.Document `json:"netlist"`
}

// EncodeEnvelope serializes a layout into the versioned envelope under
// its canonical request key.
func EncodeEnvelope(key string, lay *core.Layout) ([]byte, error) {
	return json.Marshal(diskEntry{
		Version:     envelopeVersion,
		Key:         key,
		QubitNs:     lay.QubitTime.Nanoseconds(),
		ResonatorNs: lay.ResonatorTime.Nanoseconds(),
		DPNs:        lay.DPTime.Nanoseconds(),
		QubitResult: lay.QubitResult,
		Report:      &lay.Report,
		Netlist:     layoutio.NewDocument(lay.Netlist),
	})
}

// DecodeEnvelope parses an envelope, returning the key it was encoded
// under and the rehydrated layout. Version mismatches at either the
// envelope or the netlist schema level are errors, as is a missing
// report — the caller treats the entry as corrupt/stale, never serves
// it.
func DecodeEnvelope(data []byte) (string, *core.Layout, error) {
	var ent diskEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return "", nil, err
	}
	if ent.Version != envelopeVersion {
		return "", nil, fmt.Errorf("store: envelope version %d (want %d)", ent.Version, envelopeVersion)
	}
	if ent.Key == "" {
		return "", nil, fmt.Errorf("store: envelope missing key")
	}
	if ent.Report == nil {
		return "", nil, fmt.Errorf("store: envelope missing report")
	}
	n, err := ent.Netlist.Netlist()
	if err != nil {
		return "", nil, err
	}
	return ent.Key, &core.Layout{
		Netlist:       n,
		QubitTime:     time.Duration(ent.QubitNs),
		ResonatorTime: time.Duration(ent.ResonatorNs),
		DPTime:        time.Duration(ent.DPNs),
		QubitResult:   ent.QubitResult,
		Report:        *ent.Report,
	}, nil
}
