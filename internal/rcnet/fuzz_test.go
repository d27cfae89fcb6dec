package rcnet

import (
	"bufio"
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes through the frame decoder of both
// codecs (the first byte picks the codec, as on the wire). The decoder must
// never panic, and any frame it accepts must re-encode in its codec and
// decode back to the same Envelope. The seed corpus in testdata/fuzz holds
// one valid frame of every message type in each codec plus hostile frames:
// an inflated element count, a header that announces a 4 MB payload and
// ends, and a JSON line without its newline.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		mr := &msgReader{br: bufio.NewReader(bytes.NewReader(frame))}
		e, err := mr.read()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := newMsgWriter(&buf, mr.lastCodec, nil).write(e); err != nil {
			t.Fatalf("decoded %s frame %+v does not re-encode: %v", mr.lastCodec, e, err)
		}
		if buf.Len() > maxLineBytes {
			return // JSON escaping can grow a frame past the bound; the round trip is out of scope
		}
		again, err := readMsg(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded %s frame does not decode: %v\nframe: %q", mr.lastCodec, err, buf.Bytes())
		}
		if !sameEnvelope(e, again) {
			t.Fatalf("%s round trip changed the envelope:\n got %+v\nwant %+v", mr.lastCodec, again, e)
		}
	})
}

// sameEnvelope compares envelopes field by field, floats by bit pattern
// (a binary frame may carry NaNs) and nil slices equal to empty ones (JSON
// omits both).
func sameEnvelope(a, b Envelope) bool {
	if a.Type != b.Type || a.RA != b.RA || a.Period != b.Period ||
		!sameFloats(a.Z, b.Z) || !sameFloats(a.Y, b.Y) || !sameFloats(a.Perf, b.Perf) ||
		!slices.Equal(a.Queues, b.Queues) || !sameRows(a.ZHist, b.ZHist) || !sameRows(a.YHist, b.YHist) ||
		len(a.Intervals) != len(b.Intervals) {
		return false
	}
	for k, x := range a.Intervals {
		y := b.Intervals[k]
		if !sameFloats(x.Perf, y.Perf) || !slices.Equal(x.Queues, y.Queues) ||
			!sameRows(x.Effective, y.Effective) || math.Float64bits(x.Violation) != math.Float64bits(y.Violation) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameRows(a, b [][]float64) bool { return slices.EqualFunc(a, b, sameFloats) }
