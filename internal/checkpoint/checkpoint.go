// Package checkpoint provides the binary codec of the engine
// checkpoint/restore subsystem: a versioned, length-prefixed format on the
// sticky-error carrier of internal/binio, hardened for untrusted input
// (every count is bounded before anything is allocated, truncation
// surfaces as io.ErrUnexpectedEOF, and a version mismatch is reported as
// such instead of being misparsed).
//
// The codec is deliberately dumb: fixed-width little-endian integers with
// explicit counts, no reflection, no compression. What goes into a
// checkpoint — and in which order — is decided by the owners of the state
// (core.Engine.Snapshot / core.Restore); this package only guarantees that
// a reader either consumes exactly what a writer produced or fails with a
// descriptive error. The owners' coverage is itself lint-enforced: the
// snapshotcomplete analyzer (internal/lint) requires every field of a
// checkpointed struct to be referenced on both the Snapshot and the
// Restore path, or to carry an explicit `//p3q:transient <reason>`
// waiver, so a newly added field cannot silently miss this codec.
//
// File layout:
//
//	magic    uint32 = 0x50335143 ("P3QC")
//	version  uint16
//	payload  (owner-defined sections of fixed-width fields and
//	          count-prefixed lists)
//	end      uint32 = 0x444E4523 ("#END")
//
// All integers are little-endian. Callers bound every count they read with
// Reader.Count(max); the reader never allocates proportionally to an
// unvalidated length.
package checkpoint

import (
	"errors"
	"io"

	"p3q/internal/binio"
)

// Magic identifies a P3Q checkpoint file ("P3QC").
const Magic uint32 = 0x50335143

// Version is the current format version. Restore rejects snapshots written
// by a different version: the format serializes internal engine state whose
// layout may change between versions, so cross-version reads would be
// silently wrong rather than merely lossy. Version 2 writes a settled query
// as a compact record (see core's checkpoint.go); Version 3 drops the
// per-node traffic counters, keeping only the network's per-kind total.
const Version uint16 = 3

// endMarker terminates a checkpoint ("#END"); reading it proves the stream
// was consumed in full agreement with the writer.
const endMarker uint32 = 0x444E4523

// ErrBadMagic reports input that is not a P3Q checkpoint at all.
var ErrBadMagic = errors.New("checkpoint: bad magic (not a P3Q checkpoint)")

// MaxUsers is the population sanity limit, mirroring trace.Load's. Counts
// of per-user state are bounded by it.
const MaxUsers = 1 << 24

// Writer serializes checkpoint payloads: the binio carrier (sticky errors,
// so call sites stay linear and check Close once at the end) framed by the
// checkpoint header and end marker.
type Writer struct{ binio.Writer }

// NewWriter returns a Writer emitting the checkpoint header (magic and
// current version) ahead of the payload.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{binio.MakeWriter(w, "checkpoint")}
	cw.U32(Magic)
	cw.U16(Version)
	return cw
}

// Close writes the end marker and flushes. It returns the first error of
// the whole write, so a single Close check validates the entire snapshot.
func (w *Writer) Close() error {
	w.U32(endMarker)
	return w.Flush()
}

// Reader deserializes checkpoint payloads with the same sticky-error
// discipline as Writer: after the first failure every read returns zero
// values, and Err reports what went wrong.
type Reader struct{ binio.Reader }

// NewReader returns a Reader over the stream and validates the header. Call
// Err before trusting any value: a bad magic or a version mismatch is
// already recorded at construction.
func NewReader(r io.Reader) *Reader {
	cr := &Reader{binio.MakeReader(r, "checkpoint")}
	if magic := cr.U32(); magic != Magic {
		cr.FailWith(ErrBadMagic)
	}
	if v := cr.U16(); v != Version {
		cr.Fail("unsupported format version %d (this build reads version %d)", v, Version)
	}
	return cr
}

// End consumes and validates the end marker, proving writer and reader
// agreed on the full payload layout.
func (r *Reader) End() {
	if m := r.U32(); m != endMarker {
		r.Fail("missing end marker (corrupt or desynchronized stream)")
	}
}

// CapHint bounds a slice pre-allocation for a validated count (see
// binio.CapHint) at the checkpoint format's 64Ki elements.
func CapHint(n int) int { return binio.CapHint(n, 1<<16) }
