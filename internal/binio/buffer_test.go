package binio

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// This file holds the carriers' own buffers to what bufio gave them: a
// refill anywhere inside or between fields, truncation at any byte, sticky
// errors, and never a Read for bytes the caller did not ask for.

// mixedStream writes the fields table back to back, rounds times, and
// returns the bytes with the fields in stream order.
func mixedStream(t *testing.T, rounds int) ([]byte, []field) {
	t.Helper()
	var order []field
	for i := 0; i < rounds; i++ {
		order = append(order, fields...)
	}
	return encode(t, func(w *Writer) {
		for _, f := range order {
			f.write(w)
		}
	}), order
}

// readCut decodes the fields from the first cut bytes of raw, delivered as
// src hands them out, and checks every value: what lies wholly before the
// cut reads back, the field the cut falls in fails with
// io.ErrUnexpectedEOF, and it and everything after it read as zero values.
func readCut(t *testing.T, raw []byte, cut int, order []field, src func(io.Reader) io.Reader) {
	t.Helper()
	r := MakeReader(src(bytes.NewReader(raw[:cut])), "test")
	off := 0
	for i, f := range order {
		got := f.read(&r)
		off += len(encode(t, f.write))
		want := f.want
		if off > cut {
			want = reflect.Zero(reflect.TypeOf(f.want)).Interface()
			if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
				t.Fatalf("cut at %d: field %d (%s) ends at %d, err = %v, want io.ErrUnexpectedEOF", cut, i, f.name, off, r.Err())
			}
		} else if r.Err() != nil {
			t.Fatalf("cut at %d: field %d (%s) ends at %d, err = %v", cut, i, f.name, off, r.Err())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: field %d (%s) ends at %d, read %v, want %v", cut, i, f.name, off, got, want)
		}
	}
}

func plain(r io.Reader) io.Reader { return r }

func TestTruncatedAtEveryOffset(t *testing.T) {
	raw, order := mixedStream(t, 1)
	for cut := 0; cut <= len(raw); cut++ {
		readCut(t, raw, cut, order, plain)
	}
	// A stream longer than the buffer, cut around the refill and at its end.
	raw, order = mixedStream(t, 2+bufSize/len(raw))
	if len(raw) <= bufSize+16 {
		t.Fatalf("stream of %d bytes does not cross the %d-byte buffer", len(raw), bufSize)
	}
	for cut := bufSize - 16; cut <= bufSize+16; cut++ {
		readCut(t, raw, cut, order, plain)
	}
	for cut := len(raw) - 16; cut <= len(raw); cut++ {
		readCut(t, raw, cut, order, plain)
	}
}

// TestReadersThatDeliverLittle decodes the long stream from sources that
// return one byte per Read, half of what was asked, and the last bytes
// together with io.EOF: every refill pattern yields the same values.
func TestReadersThatDeliverLittle(t *testing.T) {
	raw, order := mixedStream(t, 2+bufSize/64)
	for name, src := range map[string]func(io.Reader) io.Reader{
		"one_byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data_err": iotest.DataErrReader,
	} {
		t.Run(name, func(t *testing.T) {
			readCut(t, raw, len(raw), order, src)
			readCut(t, raw, bufSize+3, order, src)
		})
	}
}

// TestFieldsAcrossTheBuffer places each width so that it straddles the end
// of the buffer, and moves a U64s and a String larger than the buffer.
func TestFieldsAcrossTheBuffer(t *testing.T) {
	for pad := bufSize - 9; pad <= bufSize; pad++ {
		raw := encode(t, func(w *Writer) {
			for i := 0; i < pad; i++ {
				w.U8(0xAA)
			}
			w.U64(0x0102030405060708)
			w.U32(0xDEADBEEF)
			w.U16(0xFFFE)
		})
		if len(raw) != pad+14 {
			t.Fatalf("pad %d: wrote %d bytes", pad, len(raw))
		}
		r := MakeReader(bytes.NewReader(raw), "test")
		for i := 0; i < pad; i++ {
			r.U8()
		}
		if a, b, c := r.U64(), r.U32(), r.U16(); a != 0x0102030405060708 || b != 0xDEADBEEF || c != 0xFFFE || r.Err() != nil {
			t.Fatalf("pad %d: read %x %x %x (err %v)", pad, a, b, c, r.Err())
		}
	}

	words := make([]uint64, 3*bufSize/8+5)
	for i := range words {
		words[i] = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	text := strings.Repeat("0123456789abcdef", bufSize/8+1) // two buffers and a bit
	var sink writeLog
	w := MakeWriter(&sink, "test")
	w.U8(7) // misaligns everything after it
	w.U64s(words)
	w.String(text, len(text))
	w.U32(42)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 1 + 8*len(words) + 4 + len(text) + 4; sink.buf.Len() != want {
		t.Fatalf("wrote %d bytes, want %d", sink.buf.Len(), want)
	}
	for _, n := range sink.sizes {
		if n > bufSize {
			t.Fatalf("one Write of %d bytes from a %d-byte buffer", n, bufSize)
		}
	}
	for name, src := range map[string]func(io.Reader) io.Reader{"plain": plain, "one_byte": iotest.OneByteReader, "half": iotest.HalfReader} {
		r := MakeReader(src(bytes.NewReader(sink.buf.Bytes())), "test")
		got := make([]uint64, len(words))
		first := r.U8()
		r.U64s(got)
		if s, last := r.String(len(text)), r.U32(); first != 7 || !reflect.DeepEqual(got, words) || s != text || last != 42 || r.Err() != nil {
			t.Fatalf("%s: large fields did not round trip (err %v)", name, r.Err())
		}
	}
}

// writeLog records the stream and the size of every Write.
type writeLog struct {
	buf   bytes.Buffer
	sizes []int
}

func (l *writeLog) Write(p []byte) (int, error) {
	l.sizes = append(l.sizes, len(p))
	return l.buf.Write(p)
}

// shortSink accepts one byte less than it is given and reports no error.
type shortSink struct{}

func (shortSink) Write(p []byte) (int, error) { return len(p) - 1, nil }

func TestShortWriteIsAnError(t *testing.T) {
	w := MakeWriter(shortSink{}, "test")
	w.U32(1)
	if err := w.Flush(); !errors.Is(err, io.ErrShortWrite) || w.Err() != err {
		t.Fatalf("Flush = %v, Err = %v, want io.ErrShortWrite from both", err, w.Err())
	}
}

// TestReaderTakesOnlyWhatWasAsked is the wire's lockstep: the peer writes
// one frame and then waits for the answer, so a reader that tried to fill
// its buffer before returning the frame would wait for ever.
func TestReaderTakesOnlyWhatWasAsked(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	frame := func(w *Writer, seq uint32) error {
		w.U32(seq)
		w.U64(uint64(seq) << 40)
		w.String("frame", 8)
		return w.Flush()
	}
	answered := make(chan struct{})
	writeErr := make(chan error, 1) // one send, so the writer never blocks on it
	go func() {
		w := MakeWriter(client, "test")
		if err := frame(&w, 1); err != nil {
			writeErr <- err
			return
		}
		<-answered // no second write until the first frame was read
		writeErr <- frame(&w, 2)
	}()

	r := MakeReader(server, "test")
	for seq := uint32(1); seq <= 2; seq++ {
		got := make(chan [3]any, 1) // one send, so the reader goroutine always ends
		go func() { got <- [3]any{r.U32(), r.U64(), r.String(8)} }()
		select {
		case v := <-got:
			if want := [3]any{seq, uint64(seq) << 40, "frame"}; v != want || r.Err() != nil {
				t.Fatalf("frame %d read as %v (err %v)", seq, v, r.Err())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d: the reader is waiting for bytes beyond the frame it was handed", seq)
		}
		if seq == 1 {
			close(answered)
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
}

// TestFixedWidthFieldsDoNotAllocate covers both directions, buffer spills
// and refills included.
func TestFixedWidthFieldsDoNotAllocate(t *testing.T) {
	words := make([]uint64, bufSize/8+3)
	write := func(w *Writer) {
		for i := 0; i < 600; i++ {
			w.U8(1)
			w.U16(2)
			w.U32(3)
			w.U64(4)
			w.I64(-5)
			w.Bool(true)
			w.Count(6)
		}
		w.U64s(words)
	}
	w := MakeWriter(io.Discard, "test")
	if n := testing.AllocsPerRun(20, func() {
		write(&w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writing allocates %v times per run", n)
	}

	raw := encode(t, write)
	src := bytes.NewReader(nil)
	r := MakeReader(src, "test")
	if n := testing.AllocsPerRun(20, func() {
		src.Reset(raw)
		for i := 0; i < 600; i++ {
			r.U8()
			r.U16()
			r.U32()
			r.U64()
			r.I64()
			r.Bool()
			r.Count(6)
		}
		r.U64s(words)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}); n != 0 {
		t.Errorf("reading allocates %v times per run", n)
	}
}
