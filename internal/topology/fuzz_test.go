package topology

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseFuzzEdits decodes the fuzz grammar: edits separated by ';', each
// an op name followed by key=value fields (qubit, q1, q2 as integers;
// freq, w, h as floats, so NaN and ±Inf are reachable). Fields an op
// does not use may be given too; ok is false for malformed text.
func parseFuzzEdits(s string) (edits []Edit, ok bool) {
	for _, clause := range strings.Split(s, ";") {
		f := strings.Fields(clause)
		if len(f) == 0 {
			return nil, false
		}
		e := Edit{Op: f[0]}
		for _, kv := range f[1:] {
			k, v, found := strings.Cut(kv, "=")
			if !found {
				return nil, false
			}
			var err error
			switch k {
			case "qubit":
				e.Qubit, err = strconv.Atoi(v)
			case "q1":
				e.Q1, err = strconv.Atoi(v)
			case "q2":
				e.Q2, err = strconv.Atoi(v)
			case "freq":
				e.Freq, err = strconv.ParseFloat(v, 64)
			case "w":
				e.W, err = strconv.ParseFloat(v, 64)
			case "h":
				e.H, err = strconv.ParseFloat(v, 64)
			default:
				return nil, false
			}
			if err != nil {
				return nil, false
			}
		}
		edits = append(edits, e)
	}
	return edits, true
}

// FuzzCanonicalize checks the delta edit-list canonicalizer on Grid25:
// it never panics, its output is a fixed point, acceptance and output do
// not depend on input order, and every accepted retune or resize carries
// finite values inside the bounds the repair path can allocate for.
func FuzzCanonicalize(f *testing.F) {
	dev := Grid25()
	f.Fuzz(func(t *testing.T, s string) {
		edits, ok := parseFuzzEdits(s)
		if !ok {
			return
		}
		out, err := Canonicalize(dev, edits)
		rev := slices.Clone(edits)
		slices.Reverse(rev)
		outRev, errRev := Canonicalize(dev, rev)
		if (err == nil) != (errRev == nil) {
			t.Fatalf("%q: forward err %v, reversed err %v", s, err, errRev)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(out, outRev) {
			t.Fatalf("%q: reversed input canonicalizes to %+v, want %+v", s, outRev, out)
		}
		again, err := Canonicalize(dev, out)
		if err != nil || !reflect.DeepEqual(again, out) {
			t.Fatalf("%q: canonical form %+v re-canonicalizes to %+v (err %v)", s, out, again, err)
		}
		for _, e := range out {
			switch e.Op {
			case EditRetune:
				if math.IsNaN(e.Freq) || math.IsInf(e.Freq, 0) || e.Freq <= 0 {
					t.Fatalf("%q: accepted retune frequency %v", s, e.Freq)
				}
			case EditResize:
				for _, side := range []float64{e.W, e.H} {
					if math.IsNaN(side) || side <= 0 || side > MaxResizeSide {
						t.Fatalf("%q: accepted resize %vx%v", s, e.W, e.H)
					}
				}
			}
		}
	})
}
