// Package binio is the one sticky-error carrier under every binary format
// of this repository: the trace file ("P3Q0", internal/trace), the engine
// checkpoint ("P3QC", internal/checkpoint) and the peer wire frames
// ("P3QW", internal/wire). It decides how a fixed-width little-endian
// field reaches a stream and how the first failure sticks; the formats on
// top own only their framing (magic, version, message type, end marker)
// and their limits.
//
// Errors are sticky on both sides: the first failure is retained, every
// later call is a no-op returning zero values, and the caller checks Err
// (or Flush) once. A stream that ends inside a field reports
// io.ErrUnexpectedEOF, never a bare io.EOF, and the reader never allocates
// proportionally to an unvalidated length: every count is bounded with
// Count(max) before the caller sizes anything from it, and pre-allocations
// go through CapHint.
//
// Writer and Reader are the two directions; Codec holds either and runs
// one description of a struct — a walk — as its encoder or its decoder
// (every wire message). Trace and checkpoint use the pair directly.
//
// Both carriers own a 4 KiB buffer, so a fixed-width field on the fast path
// is a bounds check and a load or store, with no call into a buffering layer
// underneath.
//
// The stickyerr analyzer (internal/lint) holds the other codec packages to
// this: raw bufio/io stream access is legal only in here.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
)

// bufSize is the size of the buffer each carrier owns.
const bufSize = 4096

// Writer serializes fixed-width fields onto a stream through its own
// buffer, which reaches the stream when it is full and at Flush. Formats
// embed it by value and add their framing.
type Writer struct {
	w      io.Writer
	prefix string
	buf    []byte // bufSize bytes; buf[:n] waits for the next flush
	n      int
	err    error
}

// MakeWriter returns a Writer over w; prefix names the format in the
// errors the Writer itself raises ("checkpoint", "wire", "trace").
func MakeWriter(w io.Writer, prefix string) Writer {
	return Writer{w: w, prefix: prefix, buf: make([]byte, bufSize)}
}

// flush empties the buffer onto the stream. After the first error it only
// discards: the field methods never test err, they keep filling a buffer
// that goes nowhere.
func (w *Writer) flush() {
	if w.err == nil && w.n > 0 {
		n, err := w.w.Write(w.buf[:w.n])
		if n < w.n && err == nil {
			err = io.ErrShortWrite
		}
		w.err = err
	}
	w.n = 0
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	if w.n == len(w.buf) {
		w.flush()
	}
	w.buf[w.n] = v
	w.n++
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	if len(w.buf)-w.n < 2 {
		w.flush()
	}
	binary.LittleEndian.PutUint16(w.buf[w.n:], v)
	w.n += 2
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	if len(w.buf)-w.n < 4 {
		w.flush()
	}
	binary.LittleEndian.PutUint32(w.buf[w.n:], v)
	w.n += 4
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	if len(w.buf)-w.n < 8 {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

// I64 writes a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// U64s writes a batch of little-endian uint64s (profile action logs),
// encoding straight into the buffer.
func (w *Writer) U64s(vs []uint64) {
	for len(vs) > 0 {
		if len(w.buf)-w.n < 8 {
			w.flush()
		}
		k := min(len(vs), (len(w.buf)-w.n)/8)
		b := w.buf[w.n : w.n+k*8]
		for _, v := range vs[:k] {
			binary.LittleEndian.PutUint64(b, v)
			b = b[8:]
		}
		w.n += k * 8
		vs = vs[k:]
	}
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Count writes a list length. Negative lengths are a programming error on
// the writing side and are reported through the sticky error.
func (w *Writer) Count(n int) {
	if n < 0 {
		w.Fail("negative count %d", n)
		return
	}
	w.U32(uint32(n))
}

// String writes a length-prefixed string, rejecting one longer than max on
// the writing side so the reader's bound never truncates silently.
func (w *Writer) String(s string, max int) {
	if len(s) > max {
		w.Fail("string of %d bytes exceeds the %d-byte limit", len(s), max)
		return
	}
	w.Count(len(s))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		k := copy(w.buf[w.n:], s)
		w.n += k
		s = s[k:]
	}
}

// Fail records a writer-side error; later writes become no-ops.
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(w.prefix+": "+format, args...)
	}
}

// Flush pushes the buffered bytes onto the stream and returns the first
// error of everything written so far, a failed flush included.
func (w *Writer) Flush() error {
	w.flush()
	return w.err
}

// Reader deserializes what Writer produced, with the same discipline:
// after the first failure every read returns zero values and Err reports
// what went wrong. It reads the stream into its own buffer one Read at a
// time and only until the field being read is complete, so it never waits
// for bytes its caller did not ask for (two ends of a connection taking
// turns depend on it).
type Reader struct {
	src    io.Reader
	prefix string
	buf    []byte // bufSize bytes; buf[i:n] is read from the stream, not yet consumed
	i, n   int
	err    error
}

// MakeReader returns a Reader over r; prefix names the format in errors.
func MakeReader(r io.Reader, prefix string) Reader {
	return Reader{src: r, prefix: prefix, buf: make([]byte, bufSize)}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// stick records the first error and drops the buffered bytes: the field
// methods never test err, an empty buffer sends them to refill, which does.
func (r *Reader) stick(err error) {
	if r.err == nil {
		r.err = err
	}
	r.i, r.n = 0, 0
}

// refill reads until k <= bufSize bytes are buffered. A stream that ends
// first is truncated, whether it ends on a field boundary or inside one.
func (r *Reader) refill(k int) bool {
	if r.err != nil {
		return false
	}
	r.n = copy(r.buf, r.buf[r.i:r.n])
	r.i = 0
	m, err := io.ReadAtLeast(r.src, r.buf[r.n:], k-r.n)
	if r.n += m; err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.stick(fmt.Errorf("%s: truncated input: %w", r.prefix, err))
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.i == r.n && !r.refill(1) {
		return 0
	}
	v := r.buf[r.i]
	r.i++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if r.n-r.i < 2 && !r.refill(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.i:])
	r.i += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.n-r.i < 4 && !r.refill(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.i:])
	r.i += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.n-r.i < 8 && !r.refill(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.i:])
	r.i += 8
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// U64s fills out with little-endian uint64s, the batch counterpart of U64,
// decoding straight from the buffer.
func (r *Reader) U64s(out []uint64) {
	for len(out) > 0 {
		if r.n-r.i < 8 && !r.refill(8) {
			return
		}
		k := min(len(out), (r.n-r.i)/8)
		b := r.buf[r.i : r.i+k*8]
		for i := range out[:k] {
			out[i] = binary.LittleEndian.Uint64(b)
			b = b[8:]
		}
		r.i += k * 8
		out = out[k:]
	}
}

// Bool reads a boolean byte, rejecting values other than 0 and 1 (a strict
// read catches desynchronized streams early).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("invalid boolean byte")
		return false
	}
}

// Count reads a list length and validates it against max. Always bound
// counts with the tightest limit the context offers — the caller allocates
// based on the result.
func (r *Reader) Count(max int) int {
	n := r.U32()
	if int64(n) > int64(max) {
		r.Fail("count %d exceeds limit %d", n, max)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string {
	n := r.Count(max)
	if n == 0 {
		return ""
	}
	s := make([]byte, n)
	for b := s; len(b) > 0; {
		if r.i == r.n && !r.refill(1) {
			return ""
		}
		k := copy(b, r.buf[r.i:r.n])
		r.i += k
		b = b[k:]
	}
	return string(s)
}

// Fail records a validation failure beyond the structural ones the
// primitives detect (out-of-range values, inconsistent sections); later
// reads become no-ops.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.stick(fmt.Errorf(r.prefix+": "+format, args...))
	}
}

// FailWith records a sentinel the caller matches with errors.Is (a
// format's ErrBadMagic), unless an earlier error already stuck.
func (r *Reader) FailWith(sentinel error) { r.stick(sentinel) }

// CapHint bounds a slice pre-allocation for a validated count: hostile
// input can still claim large counts within a limit, so the caller
// reserves at most limit elements up front and grows by append as data
// actually arrives.
func CapHint(n, limit int) int {
	return min(n, limit)
}

// Codec holds either a Writer or a Reader; every method takes a pointer and
// writes the value behind it or reads into it. A format describes each
// struct as one walk over a *Codec, so the layout exists once: a field
// cannot be written and never read, or read in another order than written.
// Errors stay on the carrier, which the caller checks after the walk. A
// Codec passed through an interface method escapes, so keep one beside its
// carrier (wire.Writer, wire.Reader) instead of building one per walk.
type Codec struct {
	w *Writer
	r *Reader
}

// WriteCodec returns a Codec whose walks write to w.
func WriteCodec(w *Writer) Codec { return Codec{w: w} }

// ReadCodec returns a Codec whose walks read from r.
func ReadCodec(r *Reader) Codec { return Codec{r: r} }

// U8 carries one byte.
func (c *Codec) U8(v *uint8) {
	if c.r != nil {
		*v = c.r.U8()
	} else {
		c.w.U8(*v)
	}
}

// U32 carries a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if c.r != nil {
		*v = c.r.U32()
	} else {
		c.w.U32(*v)
	}
}

// U64 carries a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if c.r != nil {
		*v = c.r.U64()
	} else {
		c.w.U64(*v)
	}
}

// Int64 carries an int as a little-endian int64.
func (c *Codec) Int64(v *int) {
	if c.r != nil {
		*v = int(c.r.I64())
	} else {
		c.w.I64(int64(*v))
	}
}

// Bool carries a strict boolean byte.
func (c *Codec) Bool(v *bool) {
	if c.r != nil {
		*v = c.r.Bool()
	} else {
		c.w.Bool(*v)
	}
}

// String carries a length-prefixed string of at most max bytes, bounded on
// both sides.
func (c *Codec) String(v *string, max int) {
	if c.r != nil {
		*v = c.r.String(max)
	} else {
		c.w.String(*v, max)
	}
}

// Fail records a validation failure of the value a walk just carried, on
// whichever side is walking: an out-of-range value is refused by the sender
// as well as by the receiver.
func (c *Codec) Fail(format string, args ...any) {
	if c.r != nil {
		c.r.Fail(format, args...)
	} else {
		c.w.Fail(format, args...)
	}
}

// ID carries a 4-byte interned identifier (a user, a tag, an item).
func ID[T ~uint32](c *Codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U32())
	} else {
		c.w.U32(uint32(*v))
	}
}

// List carries a count-prefixed list of at most max elements, each through
// elem. Writing, a longer list fails at the sender with a named error
// instead of at the receiver's bound; reading, the count is bounded before
// anything is sized from it, at most hint elements are reserved up front,
// each element is decoded in place, and an empty list reads as nil.
func List[E any](c *Codec, s *[]E, max, hint int, elem func(*Codec, *E)) {
	if c.r == nil {
		if len(*s) > max {
			c.w.Fail("list of %d elements exceeds the limit %d", len(*s), max)
			return
		}
		c.w.Count(len(*s))
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	*s = nil
	n := c.r.Count(max)
	if n == 0 {
		return
	}
	out := make([]E, 0, CapHint(n, hint))
	for i := 0; i < n; i++ {
		var zero E
		out = append(out, zero)
		elem(c, &out[i])
		if c.r.err != nil {
			return
		}
	}
	*s = out
}
