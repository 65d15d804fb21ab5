// Package layoutio serializes layouts: JSON round-tripping for caching
// and exchanging placement solutions, and SVG rendering for visual
// inspection of what each legalization strategy did. Both formats carry
// full placement state (positions, frequencies, ownership), so a layout
// written after legalization reloads bit-identical.
package layoutio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// SchemaVersion is stamped into every JSON layout written by WriteJSON.
// ReadJSON rejects any other version: the disk cache rehydrates layouts
// written by earlier processes, and decoding a stale schema into the
// current structs would silently corrupt placements — failing safe (the
// entry is treated as a miss and recomputed) is always cheaper.
const SchemaVersion = 1

// Document is the stable JSON schema of a layout; it mirrors
// netlist.Netlist but decouples the file format from internal struct
// evolution. Any change to the field layout must bump SchemaVersion.
//
// Embedding a Document in a larger JSON value (a store envelope, an
// HTTP response) encodes the layout in the same pass as its wrapper,
// producing exactly the bytes WriteJSON would, compacted or re-indented
// to the wrapper's format.
type Document struct {
	Version    int             `json:"version"`
	Name       string          `json:"name"`
	W          float64         `json:"w"`
	H          float64         `json:"h"`
	BlockSize  float64         `json:"block_size"`
	Qubits     []jsonQubit     `json:"qubits"`
	Resonators []jsonResonator `json:"resonators"`
	Blocks     []jsonBlock     `json:"blocks"`
}

type jsonQubit struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Size float64 `json:"size"`
	Freq float64 `json:"freq"`
}

type jsonResonator struct {
	Q1     int     `json:"q1"`
	Q2     int     `json:"q2"`
	Freq   float64 `json:"freq"`
	Length float64 `json:"length"`
	Blocks []int   `json:"blocks"`
}

type jsonBlock struct {
	Edge  int     `json:"edge"`
	Index int     `json:"index"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// NewDocument builds the schema document of n. The document shares
// n's resonator block lists, so it is a read-only view for encoding:
// neither it nor n may be mutated while it is in use.
func NewDocument(n *netlist.Netlist) Document {
	d := Document{
		Version: SchemaVersion,
		Name:    n.Name, W: n.W, H: n.H, BlockSize: n.BlockSize,
	}
	// Empty lists stay nil and encode as null: stored envelopes and
	// served bodies must keep their bytes.
	if len(n.Qubits) > 0 {
		d.Qubits = make([]jsonQubit, len(n.Qubits))
		for i, q := range n.Qubits {
			d.Qubits[i] = jsonQubit{X: q.Pos.X, Y: q.Pos.Y, Size: q.Size, Freq: q.Freq}
		}
	}
	if len(n.Resonators) > 0 {
		d.Resonators = make([]jsonResonator, len(n.Resonators))
		for i, r := range n.Resonators {
			d.Resonators[i] = jsonResonator{Q1: r.Q1, Q2: r.Q2, Freq: r.Freq, Length: r.Length}
			if len(r.Blocks) > 0 {
				d.Resonators[i].Blocks = r.Blocks
			}
		}
	}
	if len(n.Blocks) > 0 {
		d.Blocks = make([]jsonBlock, len(n.Blocks))
		for i, b := range n.Blocks {
			d.Blocks[i] = jsonBlock{Edge: b.Edge, Index: b.Index, X: b.Pos.X, Y: b.Pos.Y}
		}
	}
	return d
}

// Netlist rebuilds the netlist a document describes and validates it
// structurally. Documents of any other SchemaVersion are rejected.
func (d *Document) Netlist() (*netlist.Netlist, error) {
	if d.Version != SchemaVersion {
		return nil, fmt.Errorf("layoutio: unsupported schema version %d (want %d)", d.Version, SchemaVersion)
	}
	n := &netlist.Netlist{Name: d.Name, W: d.W, H: d.H, BlockSize: d.BlockSize}
	for i, q := range d.Qubits {
		n.Qubits = append(n.Qubits, netlist.Qubit{
			ID: i, Name: d.Name, Pos: geom.Pt{X: q.X, Y: q.Y}, Size: q.Size, Freq: q.Freq,
		})
	}
	for e, r := range d.Resonators {
		n.Resonators = append(n.Resonators, netlist.Resonator{
			ID: e, Q1: r.Q1, Q2: r.Q2, Freq: r.Freq, Length: r.Length,
			Blocks: append([]int(nil), r.Blocks...),
		})
	}
	for i, b := range d.Blocks {
		n.Blocks = append(n.Blocks, netlist.WireBlock{
			ID: i, Edge: b.Edge, Index: b.Index, Pos: geom.Pt{X: b.X, Y: b.Y},
		})
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("layoutio: invalid layout: %w", err)
	}
	return n, nil
}

// WriteJSON writes the netlist to w as indented JSON.
func WriteJSON(w io.Writer, n *netlist.Netlist) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewDocument(n))
}

// ReadJSON reads a netlist previously written by WriteJSON and validates
// it structurally.
func ReadJSON(r io.Reader) (*netlist.Netlist, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("layoutio: decode: %w", err)
	}
	return d.Netlist()
}

// SVGOptions tunes WriteSVG.
type SVGOptions struct {
	// Scale is pixels per layout cell (default 12).
	Scale float64
	// Routes draws the resonator route polylines used for crossing
	// counting.
	Routes bool
}

// WriteSVG renders the layout as an SVG document: qubit macros as
// outlined squares labeled with their index, wire blocks color-coded by
// resonator frequency tone, and (optionally) route polylines.
func WriteSVG(w io.Writer, n *netlist.Netlist, opt SVGOptions) error {
	s := opt.Scale
	if s <= 0 {
		s = 12
	}
	width := n.W * s
	height := n.H * s
	// SVG y grows downward; layout y grows upward.
	fy := func(y float64) float64 { return height - y*s }
	fx := func(x float64) float64 { return x * s }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="#fcfcfc" stroke="#333"/>`+"\n", width, height)

	for i := range n.Blocks {
		blk := &n.Blocks[i]
		r := n.BlockRect(i)
		fill := toneColor(n.Resonators[blk.Edge].Freq)
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#888" stroke-width="0.5"/>`+"\n",
			fx(r.MinX()), fy(r.MaxY()), r.W*s, r.H*s, fill)
	}
	for _, q := range n.Qubits {
		r := q.Rect()
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#e8f0ff" stroke="#224" stroke-width="1.2"/>`+"\n",
			fx(r.MinX()), fy(r.MaxY()), r.W*s, r.H*s)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="%.1f" text-anchor="middle" fill="#224">%d</text>`+"\n",
			fx(q.Pos.X), fy(q.Pos.Y)-(-s*0.3), s*0.8, q.ID)
	}
	if opt.Routes {
		for e := range n.Resonators {
			pl := n.Route(e)
			var pts []string
			for _, p := range pl {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", fx(p.X), fy(p.Y)))
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="0.8" opacity="0.6"/>`+"\n",
				strings.Join(pts, " "), toneColor(n.Resonators[e].Freq))
		}
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// toneColor maps a resonator frequency onto a discrete palette so
// frequency-close resonators share a hue (hotspots become visible as
// same-colored neighbors).
func toneColor(freqGHz float64) string {
	palette := []string{
		"#d9534f", "#f0ad4e", "#ffd92f", "#5cb85c",
		"#5bc0de", "#337ab7", "#9467bd",
	}
	lo, hi := 6.8, 7.4
	t := (freqGHz - lo) / (hi - lo)
	idx := int(math.Round(t * float64(len(palette)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(palette) {
		idx = len(palette) - 1
	}
	return palette[idx]
}
