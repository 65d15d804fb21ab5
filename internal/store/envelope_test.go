package store

import (
	"bytes"
	"reflect"
	"testing"
)

// TestEnvelopeV1IsAMiss: an envelope written before the report was
// stored with the layout (version 1, no report) is never served; the
// disk tier discards it as stale and the layout is recomputed once.
func TestEnvelopeV1IsAMiss(t *testing.T) {
	data, err := EncodeEnvelope("layout:v1", testLayout(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(data, []byte(`{"version":2`), []byte(`{"version":1`), 1)
	if _, _, err := DecodeEnvelope(v1); err == nil {
		t.Error("version-1 envelope accepted")
	}
	noReport := bytes.Replace(data, []byte(`"report":{`), []byte(`"report":null,"old":{`), 1)
	if bytes.Equal(noReport, data) {
		t.Fatal("fixture: report not found to remove")
	}
	if _, _, err := DecodeEnvelope(noReport); err == nil {
		t.Error("envelope without a report accepted")
	}
}

// FuzzDecodeEnvelope: DecodeEnvelope parses bytes from the disk tier
// and from peers (/v1/replicate, /v1/envelope). It must never panic,
// and every envelope it accepts must come back unchanged from an
// encode/decode round trip.
func FuzzDecodeEnvelope(f *testing.F) {
	for seed := 0; seed < 3; seed++ {
		data, err := EncodeEnvelope("layout:seed", testLayout(f, seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		key, lay, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		enc, err := EncodeEnvelope(key, lay)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		key2, lay2, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if key2 != key || !reflect.DeepEqual(lay2, lay) {
			t.Fatalf("round trip changed the envelope:\n got %q %+v\nwant %q %+v", key2, lay2, key, lay)
		}
	})
}
