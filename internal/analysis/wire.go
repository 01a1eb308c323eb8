package analysis

// Wire codec primitives for the compact operator snapshots that federate
// per-IXP analysis state (see internal/federation). The format is
// deliberately minimal and canonical:
//
//   - integers are unsigned LEB128 varints (signed values zigzag),
//   - floats are the IEEE 754 bit pattern as a fixed 8-byte little-endian
//     word,
//   - collections are a count followed by the elements in a sorted,
//     deterministic order chosen by each operator's Marshal,
//   - every operator payload starts with its own version byte.
//
// Canonical ordering makes Marshal a fingerprint: two operator states
// that are semantically equal (same tallies, same sets) marshal to the
// same bytes regardless of observation or merge order. The conformance
// suite leans on this to compare merged against sequential state, and
// Marshal→Unmarshal→Snapshot→Marshal round-trips byte-identically.
//
// Decoding is defensive: a WireReader never panics on truncated or
// corrupted input and never allocates more than the input length can
// justify (Count caps element counts by the remaining bytes), so the
// codec is safe to expose to fuzzing and untrusted transports.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// WireWriter appends wire-encoded values to a buffer.
type WireWriter struct {
	buf []byte
}

// NewWireWriter returns an empty writer.
func NewWireWriter() *WireWriter { return &WireWriter{} }

// Bytes returns the encoded buffer.
func (w *WireWriter) Bytes() []byte { return w.buf }

// Byte appends one raw byte.
func (w *WireWriter) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends v as an unsigned LEB128 varint.
func (w *WireWriter) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends v zigzag-encoded.
func (w *WireWriter) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Bool appends a strict 0/1 byte.
func (w *WireWriter) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// F64 appends the IEEE 754 bit pattern of v as 8 little-endian bytes.
func (w *WireWriter) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Blob appends a length-prefixed byte section.
func (w *WireWriter) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// WireReader decodes values written by WireWriter. The first decoding
// error sticks: every later read returns a zero value, and Err/Done
// report the failure. Reads never panic and never over-allocate.
type WireReader struct {
	buf []byte
	off int
	err error
}

// NewWireReader returns a reader over data.
func NewWireReader(data []byte) *WireReader { return &WireReader{buf: data} }

// Err returns the first decoding error, if any.
func (r *WireReader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *WireReader) Remaining() int { return len(r.buf) - r.off }

func (r *WireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Done returns the sticky error, or an error if unread bytes remain: a
// canonical payload is consumed exactly.
func (r *WireReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// Byte reads one raw byte.
func (r *WireReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("wire: truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Version reads one byte and fails unless it equals want.
func (r *WireReader) Version(want byte) {
	if got := r.Byte(); r.err == nil && got != want {
		r.fail("wire: unsupported version %d (want %d)", got, want)
	}
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if !r.minimal(n) {
		r.fail("wire: truncated, overlong or padded uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *WireReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if !r.minimal(n) {
		r.fail("wire: truncated, overlong or padded varint")
		return 0
	}
	r.off += n
	return v
}

// minimal reports whether the n-byte varint at the read offset decoded
// and is the shortest encoding of its value, the one the writer emits: a
// padded form (a last byte of zero after a continuation) would decode to
// the same value and re-encode shorter.
func (r *WireReader) minimal(n int) bool {
	return n == 1 || n > 1 && r.buf[r.off+n-1] != 0
}

// U32 reads a uvarint and range-checks it into uint32.
func (r *WireReader) U32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail("wire: value %d exceeds uint32", v)
		return 0
	}
	return uint32(v)
}

// U16 reads a uvarint and range-checks it into uint16.
func (r *WireReader) U16() uint16 {
	v := r.Uvarint()
	if v > math.MaxUint16 {
		r.fail("wire: value %d exceeds uint16", v)
		return 0
	}
	return uint16(v)
}

// Int reads a uvarint and range-checks it into a non-negative int.
func (r *WireReader) Int() int {
	v := r.Uvarint()
	if bits.UintSize == 32 && v > math.MaxInt32 {
		r.fail("wire: value %d exceeds int", v)
		return 0
	}
	if v > math.MaxInt64 {
		r.fail("wire: value %d exceeds int", v)
		return 0
	}
	return int(v)
}

// Bool reads a strict 0/1 byte.
func (r *WireReader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("wire: invalid bool byte")
		return false
	}
}

// F64 reads an 8-byte little-endian IEEE 754 value.
func (r *WireReader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("wire: truncated float64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// Count reads an element count and validates it against the remaining
// input: a collection of n elements needs at least n*minElemSize bytes,
// so corrupted counts fail here instead of provoking a huge allocation.
func (r *WireReader) Count(minElemSize int) int {
	if minElemSize < 1 {
		minElemSize = 1
	}
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/minElemSize) {
		r.fail("wire: count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// Blob reads a length-prefixed section and returns it as a subslice of
// the input (no copy; the caller must not retain it past the input's
// lifetime unless it copies).
func (r *WireReader) Blob() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// KeyOrder checks that the keys of a decoded collection come strictly
// ascending, the order every canonical encoder writes them in: a
// duplicate or reordered key fails the decode, where accepting it would
// let the next encode merge or re-sort it, and decoding then encoding
// would no longer be a fixed point.
type KeyOrder struct {
	last uint64
	seen bool
}

// Next fails r unless key is above every key before it.
func (o *KeyOrder) Next(r *WireReader, key uint64) {
	if o.seen && key <= o.last {
		r.fail("wire: key %d duplicate or out of order", key)
	}
	o.last, o.seen = key, true
}

// SortedU64 returns a sorted copy of keys, the canonical order for
// serializing set contents.
func SortedU64(keys []uint64) []uint64 {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

// EncodeWire appends the set's canonical encoding: capacity, saturated
// tail, then the recorded keys sorted ascending. Two sets holding the
// same keys encode identically regardless of insertion order.
func (s *BoundedSet) EncodeWire(w *WireWriter) {
	w.Uvarint(uint64(s.cap))
	w.Uvarint(uint64(s.saturated))
	keys := SortedU64(s.keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Uvarint(k)
	}
}

// DecodeWire replaces the set's state with the decoded encoding; the keys
// must come sorted, as EncodeWire writes them.
func (s *BoundedSet) DecodeWire(r *WireReader) {
	capacity := r.U32()
	saturated := r.U32()
	n := r.Count(1)
	keys := make([]uint64, 0, n)
	var order KeyOrder
	for i := 0; i < n; i++ {
		k := r.Uvarint()
		order.Next(r, k)
		keys = append(keys, k)
	}
	if r.Err() != nil {
		return
	}
	s.cap = capacity
	s.saturated = saturated
	s.keys = keys
	s.idx = nil
}

// EncodeWire appends the counter's canonical encoding: capacity, then
// (key, count) pairs sorted by key.
func (c *TopCounter) EncodeWire(w *WireWriter) {
	w.Uvarint(uint64(c.cap))
	idx := make([]int, len(c.keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int { return cmp.Compare(c.keys[i], c.keys[j]) })
	w.Uvarint(uint64(len(idx)))
	for _, i := range idx {
		w.Uvarint(uint64(c.keys[i]))
		w.Uvarint(c.counts[i])
	}
}

// DecodeWire replaces the counter's state with the decoded encoding; the
// keys must come sorted, as EncodeWire writes them.
func (c *TopCounter) DecodeWire(r *WireReader) {
	capacity := r.Int()
	n := r.Count(2)
	keys := make([]uint32, 0, n)
	counts := make([]uint64, 0, n)
	var order KeyOrder
	for i := 0; i < n; i++ {
		k := r.U32()
		order.Next(r, uint64(k))
		keys = append(keys, k)
		counts = append(counts, r.Uvarint())
	}
	if r.Err() != nil {
		return
	}
	c.cap = capacity
	c.keys = keys
	c.counts = counts
}

// EncodeWire appends the counter's four tallies as varints.
func (c *Counter) EncodeWire(w *WireWriter) {
	w.Varint(c.DroppedPkts)
	w.Varint(c.ForwardedPkts)
	w.Varint(c.DroppedBytes)
	w.Varint(c.ForwardedBytes)
}

// DecodeWire replaces the counter's state with the decoded encoding.
func (c *Counter) DecodeWire(r *WireReader) {
	c.DroppedPkts = r.Varint()
	c.ForwardedPkts = r.Varint()
	c.DroppedBytes = r.Varint()
	c.ForwardedBytes = r.Varint()
}
