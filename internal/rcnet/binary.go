package rcnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary wire codec: the same envelopes as the JSON codec, framed as
//
//	magic(1) | kind(1) | payloadLen(uint32 LE) | payload
//
// with a fixed little-endian payload layout per envelope (ints as int32,
// floats as IEEE-754 bits, every slice length-prefixed with a uint32
// count). The layout is positional and complete — every field is always
// present, zero-count slices decode as nil — so encode/decode is a single
// linear pass with no reflection, no field names on the wire, and no
// per-frame heap traffic beyond the decoded slices themselves. A 1,000-RA
// coordinator spends most of its period budget on frame encode/decode;
// this codec is the cheap half of the scaling story (sharding is the
// other), and BenchmarkEnvelopeRoundTrip tracks both codecs.
//
// The magic byte cannot open a JSON frame ('{' = 0x7B), which is what lets
// a reader detect the codec per frame and the hub serve mixed fleets.

// binMagic opens every binary frame.
const binMagic = 0xE5

// binHeaderLen is magic + kind + payload length.
const binHeaderLen = 6

// Message kinds index the wire-stats counters and the binary kind byte.
const (
	kindRegister = iota
	kindCoordination
	kindPerfReport
	kindShutdown
	kindHeartbeat
	kindResume
	kindOther
	numMsgKinds
)

var msgKindNames = [numMsgKinds]MsgType{
	MsgRegister, MsgCoordination, MsgPerfReport, MsgShutdown,
	MsgHeartbeat, MsgResume, "other",
}

// msgKindOf maps a message type to its counter/wire index.
func msgKindOf(t MsgType) int {
	switch t {
	case MsgRegister:
		return kindRegister
	case MsgCoordination:
		return kindCoordination
	case MsgPerfReport:
		return kindPerfReport
	case MsgShutdown:
		return kindShutdown
	case MsgHeartbeat:
		return kindHeartbeat
	case MsgResume:
		return kindResume
	default:
		return kindOther
	}
}

// appendBinary encodes e as one binary frame into buf. The header is
// written first with a zero length, then patched once the payload size is
// known — buf is always a freshly Reset scratch owned by one msgWriter.
func appendBinary(buf *bytes.Buffer, e Envelope) error {
	kind := msgKindOf(e.Type)
	if kind == kindOther {
		return fmt.Errorf("rcnet: binary codec cannot carry message type %q", e.Type)
	}
	start := buf.Len()
	buf.Write([]byte{binMagic, byte(kind), 0, 0, 0, 0})
	putInt(buf, e.RA)
	putInt(buf, e.Period)
	putFloats(buf, e.Z)
	putFloats(buf, e.Y)
	putFloats(buf, e.Perf)
	putInts(buf, e.Queues)
	putUint32(buf, uint32(len(e.Intervals)))
	for _, ir := range e.Intervals {
		putFloats(buf, ir.Perf)
		putInts(buf, ir.Queues)
		putUint32(buf, uint32(len(ir.Effective)))
		for _, row := range ir.Effective {
			putFloats(buf, row)
		}
		putFloat(buf, ir.Violation)
	}
	putFloatRows(buf, e.ZHist)
	putFloatRows(buf, e.YHist)
	payload := buf.Len() - start - binHeaderLen
	if payload > maxLineBytes {
		return fmt.Errorf("rcnet: frame too large (>%d bytes)", maxLineBytes)
	}
	binary.LittleEndian.PutUint32(buf.Bytes()[start+2:start+binHeaderLen], uint32(payload))
	return nil
}

func putUint32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func putInt(buf *bytes.Buffer, v int) { putUint32(buf, uint32(int32(v))) }

func putFloat(buf *bytes.Buffer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	buf.Write(b[:])
}

func putFloats(buf *bytes.Buffer, vs []float64) {
	putUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		putFloat(buf, v)
	}
}

func putInts(buf *bytes.Buffer, vs []int) {
	putUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		putInt(buf, v)
	}
}

func putFloatRows(buf *bytes.Buffer, rows [][]float64) {
	putUint32(buf, uint32(len(rows)))
	for _, row := range rows {
		putFloats(buf, row)
	}
}

// readBinary reads one binary frame after the magic byte was peeked. The
// payload is read into the reader's reusable scratch buffer; decoded
// slices are freshly allocated because the Envelope outlives the buffer.
func (mr *msgReader) readBinary() (Envelope, error) {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(mr.br, hdr[:]); err != nil {
		return Envelope{}, err
	}
	if hdr[0] != binMagic {
		return Envelope{}, fmt.Errorf("rcnet: malformed frame: bad magic 0x%02x", hdr[0])
	}
	kind := int(hdr[1])
	if kind < 0 || kind >= kindOther {
		return Envelope{}, fmt.Errorf("rcnet: malformed frame: unknown kind %d", kind)
	}
	n := binary.LittleEndian.Uint32(hdr[2:])
	if n > maxLineBytes {
		return Envelope{}, fmt.Errorf("rcnet: frame too large (>%d bytes)", maxLineBytes)
	}
	if cap(mr.buf) < int(n) {
		mr.buf = make([]byte, n)
	}
	payload := mr.buf[:n]
	if _, err := io.ReadFull(mr.br, payload); err != nil {
		return Envelope{}, err
	}
	d := binDecoder{b: payload}
	e := Envelope{Type: msgKindNames[kind]}
	e.RA = d.int()
	e.Period = d.int()
	e.Z = d.floats()
	e.Y = d.floats()
	e.Perf = d.floats()
	e.Queues = d.ints()
	if n := d.count(minIntervalBytes); n > 0 {
		e.Intervals = make([]IntervalRecord, n)
		for i := range e.Intervals {
			ir := &e.Intervals[i]
			ir.Perf = d.floats()
			ir.Queues = d.ints()
			if rows := d.count(minRowBytes); rows > 0 {
				ir.Effective = make([][]float64, rows)
				for r := range ir.Effective {
					ir.Effective[r] = d.floats()
				}
			}
			ir.Violation = d.float()
		}
	}
	e.ZHist = d.floatRows()
	e.YHist = d.floatRows()
	if d.err != nil {
		return Envelope{}, fmt.Errorf("rcnet: malformed frame: %w", d.err)
	}
	if len(d.b) != 0 {
		return Envelope{}, fmt.Errorf("rcnet: malformed frame: %d trailing bytes", len(d.b))
	}
	mr.count(binHeaderLen+int(n), e.Type)
	return e, nil
}

// binDecoder is a linear cursor over a binary payload; the first decode
// error sticks and every later read returns zero values.
type binDecoder struct {
	b   []byte
	err error
}

var errShortFrame = fmt.Errorf("truncated payload")

func (d *binDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = errShortFrame
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *binDecoder) int() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return int(int32(binary.LittleEndian.Uint32(b)))
}

// Minimum encoded size of one element of each length-prefixed slice.
const (
	countBytes       = 4 // a slice's uint32 length prefix
	minFloatBytes    = 8
	minIntBytes      = 4
	minRowBytes      = countBytes                   // an empty float row
	minIntervalBytes = 3*countBytes + minFloatBytes // empty perf, queues, effective + violation
)

// count reads a slice length and bounds it by how many elements of at
// least minBytes each the remaining payload can hold, so a hostile count
// cannot make the decoder allocate more than a small multiple of the frame
// (an in-memory element is at most a few times its minimum encoding)
// before the frame is rejected.
func (d *binDecoder) count(minBytes int) int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(d.b)/minBytes) {
		d.err = errShortFrame
		return 0
	}
	return int(n)
}

func (d *binDecoder) float() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *binDecoder) floats() []float64 {
	n := d.count(minFloatBytes)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *binDecoder) ints() []int {
	n := d.count(minIntBytes)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *binDecoder) floatRows() [][]float64 {
	n := d.count(minRowBytes)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = d.floats()
	}
	if d.err != nil {
		return nil
	}
	return out
}
