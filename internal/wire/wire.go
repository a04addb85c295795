// Package wire is the versioned wire format of the P3Q peer protocol:
// the messages a p3qd daemon (internal/peer, cmd/p3qd) exchanges with its
// peers and with the p3qctl gateway — the lazy digest exchanges of §2.2.1
// (random-view buffers, top-layer offer batches, direct profile fetches),
// the eager query gossip of §2.2.2 (forwarded remaining lists, α-split
// returns, partial result delivery), the query plane, and the
// cluster-control handshake.
//
// The codec runs on the sticky-error carrier of internal/binio:
// fixed-width little-endian integers, explicit counts bounded before
// anything is allocated, truncation surfacing as io.ErrUnexpectedEOF. Each
// message's layout is one walk over a binio.Codec (messages.go), run by
// WriteMsg as the encoder and by ReadMsg as the decoder, so the two cannot
// disagree; every list and string is bounded on both sides — an oversized
// one fails at the sender, by name. This package adds the frame envelope,
// with an end marker per frame proving reader and writer agreed on the
// layout. The stickyerr analyzer (internal/lint) enforces that no error
// result is dropped.
//
// Frame layout (one frame per message, self-delimiting on a stream):
//
//	magic    uint32 = 0x50335157 ("P3QW")
//	version  uint16
//	type     uint16 (message type, messages.go)
//	payload  (message-defined fields)
//	end      uint32 = 0x444E4523 ("#END")
//
// Digests and profile snapshots never travel as bits: profiles are
// append-only (tagging.Profile), so a (owner, version) reference
// reconstructs them bit-exactly on any daemon holding the dataset — the
// same collapse internal/checkpoint uses. Every reference still carries
// the §3.3 wire cost of the object it stands for, which is what the
// traffic accounting charges on both sides.
package wire

import (
	"errors"
	"io"

	"p3q/internal/binio"
)

// Magic identifies a P3Q wire frame ("P3QW").
const Magic uint32 = 0x50335157

// Version is the current protocol version. The Hello handshake carries
// it, and every frame repeats it: daemons reject any frame from a
// different version instead of misparsing it — the format references
// engine state whose derivation may change between versions.
const Version uint16 = 3

// endMarker terminates a frame ("#END"), shared with the checkpoint
// format: reading it proves the payload was consumed in full agreement
// with the writer.
const endMarker uint32 = 0x444E4523

// ErrBadMagic reports input that is not a P3Q wire frame at all.
var ErrBadMagic = errors.New("wire: bad magic (not a P3Q wire frame)")

// MaxListLen bounds every repeated section of a message (digest batches,
// remaining lists, result lists) before allocation. Personal networks,
// views and gossip batches are all far below it; a count above is a
// malformed or hostile frame.
const MaxListLen = 1 << 16

// MaxStringLen bounds the free-text fields (handshake reject reasons).
const MaxStringLen = 1 << 10

// MaxQueryEntries bounds the per-query stats table of a StatsResp.
const MaxQueryEntries = 1 << 20

// listCapHint caps the preallocation for a validated list count (see
// binio.CapHint): a frame may legitimately announce a large list, but
// append grows the rest only as data actually arrives.
const listCapHint = 1 << 12

// Writer serializes wire frames: the binio carrier (sticky errors, checked
// once per frame), the frame envelope, and the Codec that walks each
// message onto the carrier.
type Writer struct {
	binio.Writer
	codec binio.Codec
}

// NewWriter returns a Writer over the stream. One Writer per connection:
// frames are emitted back to back and flushed per frame.
func NewWriter(w io.Writer) *Writer {
	ww := &Writer{Writer: binio.MakeWriter(w, "wire")}
	ww.codec = binio.WriteCodec(&ww.Writer)
	return ww
}

// begin emits a frame header.
func (w *Writer) begin(t Type) {
	w.U32(Magic)
	w.U16(Version)
	w.U16(uint16(t))
}

// finish emits the end marker and flushes the frame onto the stream,
// returning the first error of the whole frame.
func (w *Writer) finish() error {
	w.U32(endMarker)
	return w.Flush()
}

// Reader deserializes wire frames with the same sticky-error discipline
// as Writer. One Reader per connection.
type Reader struct {
	binio.Reader
	codec binio.Codec
}

// NewReader returns a Reader over the stream.
func NewReader(r io.Reader) *Reader {
	rr := &Reader{Reader: binio.MakeReader(r, "wire")}
	rr.codec = binio.ReadCodec(&rr.Reader)
	return rr
}

// header reads and validates a frame header, returning the message type.
func (r *Reader) header() Type {
	if magic := r.U32(); magic != Magic {
		r.FailWith(ErrBadMagic)
	}
	if v := r.U16(); v != Version {
		r.Fail("unsupported protocol version %d (this build speaks version %d)", v, Version)
	}
	return Type(r.U16())
}

// end validates the frame's end marker.
func (r *Reader) end() {
	if m := r.U32(); m != endMarker {
		r.Fail("missing end marker (frame layout disagreement)")
	}
}

// WriteMsg encodes one message as a frame onto w and flushes it.
func WriteMsg(w *Writer, m Msg) error {
	w.begin(m.WireType())
	m.walk(&w.codec)
	return w.finish()
}

// ReadMsg decodes the next frame from r, returning the typed message. On
// any error the stream must be considered desynchronized and the
// connection torn down.
func ReadMsg(r *Reader) (Msg, error) {
	t := r.header()
	if r.Err() != nil {
		return nil, r.Err()
	}
	m, ok := newMsg(t)
	if !ok {
		r.Fail("unknown message type %d", t)
		return nil, r.Err()
	}
	m.walk(&r.codec)
	r.end()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return m, nil
}
