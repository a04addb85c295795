package binio

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// field is one primitive carrying one value: how it is written, how it is
// read back, and the bytes it occupies on the stream. The hex column is
// the format's golden: a change to how any field reaches a stream shows
// up here as a one-line diff.
type field struct {
	name  string
	hex   string
	write func(w *Writer)
	read  func(r *Reader) any
	want  any
}

var fields = []field{
	{"U8", "07",
		func(w *Writer) { w.U8(7) }, func(r *Reader) any { return r.U8() }, uint8(7)},
	{"U16", "fe ff",
		func(w *Writer) { w.U16(0xFFFE) }, func(r *Reader) any { return r.U16() }, uint16(0xFFFE)},
	{"U32", "ef be ad de",
		func(w *Writer) { w.U32(0xDEADBEEF) }, func(r *Reader) any { return r.U32() }, uint32(0xDEADBEEF)},
	{"U64", "08 07 06 05 04 03 02 01",
		func(w *Writer) { w.U64(0x0102030405060708) }, func(r *Reader) any { return r.U64() }, uint64(0x0102030405060708)},
	{"I64", "d6 ff ff ff ff ff ff ff",
		func(w *Writer) { w.I64(-42) }, func(r *Reader) any { return r.I64() }, int64(-42)},
	{"Bool/true", "01",
		func(w *Writer) { w.Bool(true) }, func(r *Reader) any { return r.Bool() }, true},
	{"Bool/false", "00",
		func(w *Writer) { w.Bool(false) }, func(r *Reader) any { return r.Bool() }, false},
	{"Count/at-limit", "e8 03 00 00",
		func(w *Writer) { w.Count(1000) }, func(r *Reader) any { return r.Count(1000) }, 1000},
	{"String/at-limit", "02 00 00 00 68 69",
		func(w *Writer) { w.String("hi", 2) }, func(r *Reader) any { return r.String(2) }, "hi"},
	{"String/empty", "00 00 00 00",
		func(w *Writer) { w.String("", 2) }, func(r *Reader) any { return r.String(2) }, ""},
	{"U64s", "01 00 00 00 00 00 00 00 00 00 00 00 00 00 00 80",
		func(w *Writer) { w.U64s([]uint64{1, 1 << 63}) },
		func(r *Reader) any {
			out := make([]uint64, 2)
			if r.U64s(out); r.Err() != nil {
				return []uint64(nil)
			}
			return out
		}, []uint64{1, 1 << 63}},

	// The Codec's fields: one walk is both the write and the read, and the
	// bytes are those of the primitive underneath.
	codecField("Codec/U8", "07", uint8(7), (*Codec).U8),
	codecField("Codec/U32", "ef be ad de", uint32(0xDEADBEEF), (*Codec).U32),
	codecField("Codec/U64", "08 07 06 05 04 03 02 01", uint64(0x0102030405060708), (*Codec).U64),
	codecField("Codec/Int64", "d6 ff ff ff ff ff ff ff", -42, (*Codec).Int64),
	codecField("Codec/Bool", "01", true, (*Codec).Bool),
	codecField("Codec/String", "02 00 00 00 68 69", "hi", func(c *Codec, v *string) { c.String(v, 2) }),
	codecField("Codec/ID", "2a 00 00 00", testID(42), ID[testID]),
	codecField("Codec/List/at-limit", "02 00 00 00 01 00 00 00 02 00 00 00", []testID{1, 2}, walkTestIDs),
	codecField("Codec/List/empty", "00 00 00 00", []testID(nil), walkTestIDs),
}

type testID uint32

func walkTestIDs(c *Codec, ids *[]testID) { List(c, ids, 2, 1, ID[testID]) }

// codecField builds a field whose write and read are the same walk.
func codecField[T any](name, hex string, val T, walk func(c *Codec, v *T)) field {
	return field{name, hex,
		func(w *Writer) {
			c, v := WriteCodec(w), val
			walk(&c, &v)
		},
		func(r *Reader) any {
			c := ReadCodec(r)
			var v T
			walk(&c, &v)
			return v
		},
		val}
}

func encode(t *testing.T, write func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := MakeWriter(&buf, "test")
	write(&w)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// TestFields pins, for every primitive, the bytes it writes, the value it
// reads back, and what happens when the stream ends at any byte offset
// inside it: io.ErrUnexpectedEOF (never a bare io.EOF, the offset-0 case),
// a zero value, and an error that later reads cannot displace.
func TestFields(t *testing.T) {
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			raw := encode(t, f.write)
			if got := fmt.Sprintf("% x", raw); got != f.hex {
				t.Errorf("wrote %q, golden is %q", got, f.hex)
			}
			r := MakeReader(bytes.NewReader(raw), "test")
			if got := f.read(&r); !reflect.DeepEqual(got, f.want) || r.Err() != nil {
				t.Errorf("read back %v (err %v), want %v", got, r.Err(), f.want)
			}
			zero := reflect.Zero(reflect.TypeOf(f.want)).Interface()
			for cut := 0; cut < len(raw); cut++ {
				r := MakeReader(bytes.NewReader(raw[:cut]), "test")
				got := f.read(&r)
				first := r.Err()
				if !errors.Is(first, io.ErrUnexpectedEOF) {
					t.Fatalf("cut at %d/%d: err = %v, want io.ErrUnexpectedEOF", cut, len(raw), first)
				}
				if !reflect.DeepEqual(got, zero) {
					t.Errorf("cut at %d/%d: failed read returned %v, want the zero value", cut, len(raw), got)
				}
				r.U64()
				r.Fail("later validation failure")
				r.FailWith(io.EOF)
				if r.Err() != first {
					t.Errorf("cut at %d/%d: error not sticky: %v then %v", cut, len(raw), first, r.Err())
				}
			}
		})
	}

	// All of them back to back on one stream, through one carrier pair.
	raw := encode(t, func(w *Writer) {
		for _, f := range fields {
			f.write(w)
		}
	})
	r := MakeReader(bytes.NewReader(raw), "test")
	for _, f := range fields {
		if got := f.read(&r); !reflect.DeepEqual(got, f.want) {
			t.Errorf("stream: %s read back %v, want %v", f.name, got, f.want)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.U8(); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("read past the end: err = %v, want io.ErrUnexpectedEOF", r.Err())
	}
}

// TestU64s walks the batch primitive across its 64-word chunk boundary.
func TestU64s(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		words := make([]uint64, n)
		for i := range words {
			words[i] = uint64(i+1) * 0x9E3779B97F4A7C15
		}
		raw := encode(t, func(w *Writer) { w.U64s(words) })
		single := encode(t, func(w *Writer) {
			for _, v := range words {
				w.U64(v)
			}
		})
		if !bytes.Equal(raw, single) {
			t.Fatalf("n=%d: U64s wrote different bytes than n U64 calls", n)
		}
		out := make([]uint64, n)
		r := MakeReader(bytes.NewReader(raw), "test")
		if r.U64s(out); r.Err() != nil || !reflect.DeepEqual(out, words) {
			t.Fatalf("n=%d: round trip failed (err %v)", n, r.Err())
		}
		if n == 0 {
			continue
		}
		r = MakeReader(bytes.NewReader(raw[:len(raw)-1]), "test")
		if r.U64s(out); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("n=%d, one byte short: err = %v, want io.ErrUnexpectedEOF", n, r.Err())
		}
	}
}

// TestRejects covers the validation the primitives do beyond truncation,
// on both sides. Each rejection names the format through the prefix.
func TestRejects(t *testing.T) {
	reads := []struct {
		name, hex string
		read      func(r *Reader) any
		wantErr   string
	}{
		{"strict_bool", "02", func(r *Reader) any { return r.Bool() }, "test: invalid boolean byte"},
		{"count_over_limit", "e8 03 00 00", func(r *Reader) any { return r.Count(999) }, "test: count 1000 exceeds limit 999"},
		{"count_beyond_int32", "ff ff ff ff", func(r *Reader) any { return r.Count(1 << 24) }, "exceeds limit"},
		{"string_over_limit", "03 00 00 00 61 62 63", func(r *Reader) any { return r.String(2) }, "test: count 3 exceeds limit 2"},
		{"list_over_limit", "03 00 00 00 01 00 00 00", func(r *Reader) any {
			c := ReadCodec(r)
			ids := []testID{9}
			walkTestIDs(&c, &ids)
			return ids
		}, "test: count 3 exceeds limit 2"},
		{"codec_fail", "", func(r *Reader) any {
			c := ReadCodec(r)
			c.Fail("bad value")
			return r.U8()
		}, "test: bad value"},
	}
	for _, c := range reads {
		t.Run(c.name, func(t *testing.T) {
			raw, err := hex.DecodeString(strings.ReplaceAll(c.hex, " ", ""))
			if err != nil {
				t.Fatal(err)
			}
			r := MakeReader(bytes.NewReader(raw), "test")
			got := c.read(&r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), c.wantErr) {
				t.Fatalf("err = %v, want %q", r.Err(), c.wantErr)
			}
			if !reflect.ValueOf(got).IsZero() {
				t.Errorf("rejected read returned %v, want the zero value", got)
			}
		})
	}

	writes := []struct {
		name    string
		write   func(w *Writer)
		wantErr string
	}{
		{"negative_count", func(w *Writer) { w.Count(-1) }, "test: negative count -1"},
		{"string_over_limit", func(w *Writer) { w.String("abc", 2) }, "test: string of 3 bytes exceeds the 2-byte limit"},
		{"list_over_limit", func(w *Writer) {
			c, ids := WriteCodec(w), []testID{1, 2, 3}
			walkTestIDs(&c, &ids)
		}, "test: list of 3 elements exceeds the limit 2"},
		{"codec_fail", func(w *Writer) {
			c := WriteCodec(w)
			c.Fail("bad value")
		}, "test: bad value"},
	}
	for _, c := range writes {
		t.Run("write_"+c.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := MakeWriter(&buf, "test")
			c.write(&w)
			w.U32(1) // a no-op after the failure
			err := w.Flush()
			if err == nil || !strings.Contains(err.Error(), c.wantErr) || w.Flush() != err {
				t.Fatalf("Flush = %v, then %v, want %q from both", err, w.Flush(), c.wantErr)
			}
			if buf.Len() != 0 {
				t.Errorf("a failed writer still emitted % x", buf.Bytes())
			}
		})
	}

	t.Run("sentinel", func(t *testing.T) {
		sentinel := errors.New("not this format")
		r := MakeReader(bytes.NewReader([]byte{1}), "test")
		r.FailWith(sentinel)
		r.Fail("later")
		if r.Err() != sentinel {
			t.Fatalf("err = %v, want the sentinel itself", r.Err())
		}
		if r.U8() != 0 {
			t.Error("a failed reader still consumed input")
		}
	})
}

// failingSink accepts the first ok writes, then fails every later one.
type failingSink struct{ ok, calls int }

func (s *failingSink) Write(p []byte) (int, error) {
	s.calls++
	if s.calls > s.ok {
		return 0, fmt.Errorf("sink closed (write %d)", s.calls)
	}
	return len(p), nil
}

// TestStickyWriter checks that the first failure of the underlying stream
// poisons the Writer for good — whether it surfaces in the middle of a
// payload (the buffer spilling) or only in Flush — and that a poisoned
// Writer leaves the stream alone.
func TestStickyWriter(t *testing.T) {
	t.Run("mid_payload", func(t *testing.T) {
		sink := &failingSink{}
		w := MakeWriter(sink, "test")
		w.U64s(make([]uint64, 1024)) // 8 KiB: spills the 4 KiB buffer
		first := w.err
		if first == nil {
			t.Fatal("write to a failing sink succeeded")
		}
		calls := sink.calls
		w.U32(1)
		w.String("x", 8)
		if err := w.Flush(); err != first || w.err != first {
			t.Fatalf("error not sticky: %v, then Flush = %v, Err = %v", first, err, w.err)
		}
		if sink.calls != calls {
			t.Error("a poisoned writer wrote to the stream again")
		}
	})
	t.Run("failed_flush", func(t *testing.T) {
		sink := &failingSink{}
		w := MakeWriter(sink, "test")
		w.U32(1)
		if w.err != nil {
			t.Fatalf("buffered write failed early: %v", w.err)
		}
		first := w.Flush()
		if first == nil || w.err != first {
			t.Fatalf("Flush = %v, Err = %v, want the sink's error from both", first, w.err)
		}
		w.U32(2)
		if err := w.Flush(); err != first || sink.calls != 1 {
			t.Fatalf("second Flush = %v after %d sink writes, want the first error and no retry", err, sink.calls)
		}
	})
	t.Run("frames", func(t *testing.T) {
		sink := &failingSink{ok: 1}
		w := MakeWriter(sink, "test")
		w.U32(1)
		if err := w.Flush(); err != nil {
			t.Fatalf("first frame: %v", err)
		}
		w.U32(2)
		if err := w.Flush(); err == nil {
			t.Fatal("second frame reached a closed sink without an error")
		}
	})
}

func TestCapHint(t *testing.T) {
	for _, c := range [][3]int{{0, 8, 0}, {5, 8, 5}, {8, 8, 8}, {1 << 24, 8, 8}} {
		if got := CapHint(c[0], c[1]); got != c[2] {
			t.Errorf("CapHint(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}
