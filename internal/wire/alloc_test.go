package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
)

// allocEnvelopes are the two frame shapes of a FloodSetWS round on the
// shared mesh: a null message and a W set, both tagged with an instance.
func allocEnvelopes(t *testing.T) (null, w Envelope) {
	t.Helper()
	null = Envelope{From: 2, To: 5, Round: 3, Kind: KindNull, Instance: 1234}
	w, err := EnvelopeFor(2, 5, 3, consensus.WMsg{W: model.NewValueSet(-40, 7, 1<<33)})
	if err != nil {
		t.Fatal(err)
	}
	w.Instance = 1234
	return null, w
}

// TestAppendEncodeAllocs pins the reuse contract of AppendEncode: encoding
// into a buffer that already has room allocates nothing, for a null frame
// and for a W frame (whose set is serialized in place, not copied out).
func TestAppendEncodeAllocs(t *testing.T) {
	null, w := allocEnvelopes(t)
	for _, e := range []Envelope{null, w} {
		buf := make([]byte, 0, 64)
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = AppendEncode(buf[:0], e); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendEncode(%v) into a pre-sized buffer: %.1f allocs, want 0", e.Kind, allocs)
		}
		want, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("AppendEncode(%v) = %x, Encode = %x", e.Kind, buf, want)
		}
	}
}

// TestDecodeAllocs pins the decoder's cost: a null frame decodes without
// allocating, a W frame with at most two allocations (the value slice,
// adopted as the set, and the payload's interface box).
func TestDecodeAllocs(t *testing.T) {
	null, w := allocEnvelopes(t)
	for _, tc := range []struct {
		e   Envelope
		max float64
	}{{null, 0}, {w, 2}} {
		data, err := Encode(tc.e)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("Decode(%v): %.1f allocs, want <= %.0f", tc.e.Kind, allocs, tc.max)
		}
	}
}

// TestDecodeNormalizesUnsortedW: a W payload whose wire order is not
// strictly increasing (never produced by Encode, but legal input) still
// decodes to the canonical sorted, deduplicated set.
func TestDecodeNormalizesUnsortedW(t *testing.T) {
	// from=1 to=2 round=1 kind=W count=4 values 5,-1,5,3 (zigzag varints).
	data := []byte{1, 2, 1, byte(KindW), 4, 10, 1, 10, 6}
	e, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want := consensus.WMsg{W: model.NewValueSet(-1, 3, 5)}
	if !reflect.DeepEqual(e.Payload, want) {
		t.Errorf("payload = %#v, want %#v", e.Payload, want)
	}
}

// TestDecodeRejectsOversizedCount: an element count larger than the bytes
// that follow it is truncation, not an allocation request.
func TestDecodeRejectsOversizedCount(t *testing.T) {
	for _, k := range []Kind{KindW, KindVotes, KindFDRing} {
		data := []byte{1, 2, 1, byte(k), 0xff, 0xff, 0xff, 0xff, 0x0f, 1}
		if _, err := Decode(data); err != ErrTruncated {
			t.Errorf("%v with count 2^32-1: err = %v, want ErrTruncated", k, err)
		}
	}
}
