package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// The primitives under the framing are internal/binio's and tested there;
// these tests cover what this package adds: header, version, end marker.

// TestRoundTrip pins the frame around a payload byte for byte.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1234)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"43 51 33 50",             // magic "P3QC"
		"03 00",                   // version
		"d2 04 00 00 00 00 00 00", // payload
		"23 45 4e 44",             // end marker "#END"
	}, " ")
	if got := fmt.Sprintf("% x", buf.Bytes()); got != want {
		t.Fatalf("frame is\n%s\nwant\n%s", got, want)
	}

	r := NewReader(&buf)
	if got := r.U64(); got != 1234 {
		t.Fatalf("U64 = %d", got)
	}
	r.End()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if !errors.Is(r.Err(), ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", r.Err())
	}
}

func TestRejectsVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] ^= 0xFF // flip the version field behind the magic
	r := NewReader(bytes.NewReader(raw))
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "version") {
		t.Fatalf("err = %v, want a version mismatch", r.Err())
	}
}

func TestRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1234)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r := NewReader(bytes.NewReader(raw[:len(raw)-6]))
	r.U64()
	r.End()
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", r.Err())
	}
}

func TestStickyErrors(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	first := r.Err()
	if first == nil {
		t.Fatal("empty input accepted")
	}
	r.U64()
	r.Bool()
	r.End()
	if r.Err() != first {
		t.Fatalf("error not sticky: %v then %v", first, r.Err())
	}
}

func TestMissingEndMarker(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(99)
	w.U32(99) // payload where End expects the marker
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.U32()
	r.End()
	if r.Err() == nil {
		t.Fatal("End accepted a stream without the marker")
	}
}
