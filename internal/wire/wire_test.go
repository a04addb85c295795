package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"p3q/internal/tagging"
	"p3q/internal/topk"
)

// sampleMessages returns one fully populated message per wire type. The
// round-trip test, the fuzz seed corpus and the corpus-drift check all
// derive from this single list, so adding a message type here is the only
// step needed to cover it everywhere.
func sampleMessages() []Msg {
	refs := []tagging.DigestRef{
		{Owner: 3, Version: 2},
		{Owner: 17, Version: 0},
	}
	refs2 := []tagging.DigestRef{{Owner: 8, Version: 5}}
	users := []tagging.UserID{4, 9, 21}
	tags := []tagging.TagID{2, 7}
	entries := []topk.Entry{{Item: 11, Score: 5}, {Item: 3, Score: 2}}

	return []Msg{
		&Hello{Index: 1, Lo: 20, Hi: 40, Users: 60, Seed: 42, ConfigSum: 0xDEAD, DatasetSum: 0xBEEF},
		&HelloAck{OK: false, Index: 0, Reason: "seed mismatch"},
		&Step{Kind: StepEager, Seq: 9},
		&StepAck{Seq: 9},
		&Shutdown{},
		&ShutdownAck{},
		&ViewExchangeReq{Seq: 4, Initiator: 5, Partner: 31, Buf: refs},
		&ViewExchangeResp{Buf: refs2},
		&TopExchangeReq{Seq: 4, Initiator: 5, Partner: 31, Offers: refs},
		&TopExchangeResp{Offers: refs2},
		&DirectFetchReq{Seq: 4, Requester: 5, Owner: 31},
		&DirectFetchResp{Offer: tagging.DigestRef{Owner: 31, Version: 3}},
		&EagerForwardReq{Seq: 6, Qid: 2, Initiator: 5, Dest: 31, Querier: 4, Tags: tags, Branch: users, Offers: refs},
		&EagerForwardResp{Returned: users, Offers: refs2},
		&PartialResult{Seq: 6, Qid: 2, Initiator: 5, From: 31, FoundOwners: users, Entries: entries},
		&PartialResultAck{},
		&QuerySubmit{Querier: 4, Tags: tags},
		&QuerySubmitAck{OK: true, Qid: 2},
		&QueryIssue{Querier: 4, Tags: tags},
		&QueryIssueAck{OK: true, Qid: 2},
		&QueryStatus{Qid: 2},
		&QueryStatusResp{
			Known: true, Done: true, Cycles: 7, Used: 11, Needed: 12,
			Forwarded: 640, Returned: 320, PartialResults: 480, Maintenance: 4096,
			Results: entries,
		},
		&Stats{},
		&StatsResp{
			Index: 1, LazyCycles: 30, EagerCycles: 12, Divergence: 0,
			WireMsgs: 210, WireBytes: 68000,
			FrozenEvents: 3, PendingEvents: 8,
			PlanNanos: 1_200_000, CommitNanos: 950_000, SkewMaxNanos: 40_000,
			Data:          PlaneStat{Msgs: 150, Bytes: 50000},
			Ctrl:          PlaneStat{Msgs: 40, Bytes: 12000},
			Gateway:       PlaneStat{Msgs: 20, Bytes: 6000},
			Served:        PlaneStat{Msgs: 180, Bytes: 61000},
			QueriesIssued: 7, QueriesSettled: 5,
		},
	}
}

func encodeFrame(t testing.TB, m Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(NewWriter(&buf), m); err != nil {
		t.Fatalf("WriteMsg(%T): %v", m, err)
	}
	return buf.Bytes()
}

// TestSampleMessagesCoverEveryType guards the sample list against rotting
// as message types are added.
func TestSampleMessagesCoverEveryType(t *testing.T) {
	seen := make(map[Type]bool)
	for _, m := range sampleMessages() {
		if seen[m.WireType()] {
			t.Errorf("duplicate sample for type %d", m.WireType())
		}
		seen[m.WireType()] = true
	}
	for ty := Type(0); ty < 64; ty++ {
		if _, known := newMsg(ty); known && !seen[ty] {
			t.Errorf("message type %d has no sample", ty)
		}
	}
}

// edgeMessages are round-trip inputs beyond the one-per-type samples: every
// list empty (which must decode to nil, as the samples' DeepEqual demands of
// the zero message), an all-zero StatsResp, and a reason of exactly
// MaxStringLen bytes.
func edgeMessages() []Msg {
	return []Msg{
		&ViewExchangeReq{},
		&EagerForwardReq{},
		&EagerForwardResp{},
		&PartialResult{},
		&QueryStatusResp{},
		&StatsResp{},
		&HelloAck{Reason: strings.Repeat("x", MaxStringLen)},
	}
}

// decodeAllocs is what ReadMsg allocates for a frame, measured on the
// hand-written decoders the walks replaced and pinned so a walk that
// escapes a temporary per element or per frame shows up as a count: the
// message itself (nothing for an empty struct), one backing array per
// non-empty list, two per non-empty string (the read buffer and its copy).
func decodeAllocs(m Msg) float64 {
	v := reflect.ValueOf(m).Elem()
	if v.NumField() == 0 {
		return 0
	}
	n := 1.0
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.Kind() == reflect.Slice && f.Len() > 0:
			n++
		case f.Kind() == reflect.String && f.Len() > 0:
			n += 2
		}
	}
	return n
}

func TestRoundTrip(t *testing.T) {
	w := NewWriter(io.Discard)
	for _, m := range append(sampleMessages(), edgeMessages()...) {
		frame := encodeFrame(t, m)
		got, err := ReadMsg(NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Errorf("%T: ReadMsg: %v", m, err)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", m, got, m)
		}

		// Through per-connection carriers, as the daemon runs them.
		if n := testing.AllocsPerRun(20, func() {
			if err := WriteMsg(w, m); err != nil {
				t.Fatalf("WriteMsg(%T): %v", m, err)
			}
		}); n != 0 {
			t.Errorf("%T: encoding allocates %v times per frame, want 0", m, n)
		}
		src := bytes.NewReader(nil)
		r := NewReader(src)
		if n, want := testing.AllocsPerRun(20, func() {
			src.Reset(frame)
			if _, err := ReadMsg(r); err != nil {
				t.Fatalf("ReadMsg(%T): %v", m, err)
			}
		}), decodeAllocs(m); n != want {
			t.Errorf("%T: decoding allocates %v times per frame, want %v", m, n, want)
		}
	}
}

// TestStreamOfFrames checks that back-to-back frames on one stream decode
// in order through a single persistent Reader — the per-connection shape
// the daemon uses.
func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := WriteMsg(w, m); err != nil {
			t.Fatalf("WriteMsg(%T): %v", m, err)
		}
	}
	r := NewReader(&buf)
	for _, want := range msgs {
		got, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("ReadMsg (want %T): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
	if _, err := ReadMsg(r); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("exhausted stream: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestTruncation feeds every proper prefix of every sample frame to the
// decoder: each must fail cleanly as an unexpected EOF, never panic and
// never succeed.
func TestTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		frame := encodeFrame(t, m)
		for cut := 0; cut < len(frame); cut++ {
			if _, err := ReadMsg(NewReader(bytes.NewReader(frame[:cut]))); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%T cut at %d/%d: got %v, want io.ErrUnexpectedEOF", m, cut, len(frame), err)
			}
		}
	}
}

// The field primitives (strict booleans, sticky write errors, truncation
// inside a field) are internal/binio's and tested there; the rejection
// tests below cover the frame envelope and this format's own limits.

func TestBadMagic(t *testing.T) {
	frame := encodeFrame(t, &StepAck{Seq: 1})
	frame[0] ^= 0xFF
	if _, err := ReadMsg(NewReader(bytes.NewReader(frame))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

// TestVersionMismatch: a frame of the previous protocol version is refused
// by name, as is any other version this build does not speak.
func TestVersionMismatch(t *testing.T) {
	for _, v := range []uint16{Version - 1, Version + 1, 0xFFFF} {
		frame := encodeFrame(t, &StepAck{Seq: 1})
		binary.LittleEndian.PutUint16(frame[4:], v)
		_, err := ReadMsg(NewReader(bytes.NewReader(frame)))
		if want := fmt.Sprintf("unsupported protocol version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: got %v, want an error saying %q", v, err, want)
		}
	}
}

// TestStatsRespHasOneLength: a StatsResp carries no list or string, so its
// frame is as long whatever its values — the reply does not grow with the
// queries a daemon has answered.
func TestStatsRespHasOneLength(t *testing.T) {
	ty := reflect.TypeOf(StatsResp{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); f.Type.Kind() != reflect.Uint32 && f.Type.Kind() != reflect.Uint64 && f.Type != reflect.TypeOf(PlaneStat{}) {
			t.Errorf("StatsResp.%s is a %s, not a fixed-width field", f.Name, f.Type)
		}
	}
	zero := len(encodeFrame(t, &StatsResp{}))
	for _, m := range sampleMessages() {
		if n := len(encodeFrame(t, m)); m.WireType() == TypeStatsResp && n != zero {
			t.Errorf("the sample StatsResp encodes to %d bytes, the zero one to %d", n, zero)
		}
	}
}

func TestUnknownType(t *testing.T) {
	frame := encodeFrame(t, &StepAck{Seq: 1})
	frame[6] = 0xFF // low byte of the type field
	frame[7] = 0xFF
	r := NewReader(bytes.NewReader(frame))
	_, err := ReadMsg(r)
	if err == nil || !strings.Contains(err.Error(), "unknown message type") {
		t.Fatalf("got %v, want an unknown-type error", err)
	}
	// The payload of an unknown type cannot be skipped: the stream is lost.
	if _, again := ReadMsg(r); again != err {
		t.Fatalf("next frame after an unknown type: got %v, want the same error", again)
	}
}

func TestCorruptEndMarker(t *testing.T) {
	frame := encodeFrame(t, &StepAck{Seq: 1})
	frame[len(frame)-1] ^= 0xFF
	_, err := ReadMsg(NewReader(bytes.NewReader(frame)))
	if err == nil || !strings.Contains(err.Error(), "end marker") {
		t.Fatalf("got %v, want an end-marker error", err)
	}
}

// TestOversizedCount crafts a ViewExchangeResp announcing more digest
// refs than MaxListLen: the bound must trip before any allocation is
// attempted.
func TestOversizedCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.begin(TypeViewExchangeResp)
	w.U32(MaxListLen + 1)
	if err := w.finish(); err != nil {
		t.Fatalf("crafting frame: %v", err)
	}
	_, err := ReadMsg(NewReader(&buf))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("got %v, want a count-limit error", err)
	}
}

func TestInvalidStepKind(t *testing.T) {
	frame := encodeFrame(t, &Step{Kind: StepLazy, Seq: 3})
	frame[8] = 9 // the kind byte
	_, err := ReadMsg(NewReader(bytes.NewReader(frame)))
	if err == nil || !strings.Contains(err.Error(), "step kind") {
		t.Fatalf("got %v, want a step-kind error", err)
	}
	// One walk: the sender refuses the kind the receiver would.
	err = WriteMsg(NewWriter(io.Discard), &Step{Kind: 9, Seq: 3})
	if err == nil || !strings.Contains(err.Error(), "step kind") {
		t.Fatalf("WriteMsg of an invalid kind: got %v, want a step-kind error", err)
	}
}

// TestWriterRejectsOversizedString pins the writer-side guards: an
// oversized reject reason or list fails loudly at the sender, with a named
// error, instead of tripping the receiver's bound and leaving the sender
// with a bare EOF. Exactly the limit still crosses.
func TestWriterRejectsOversizedString(t *testing.T) {
	for _, c := range []struct {
		m       Msg
		wantErr string
	}{
		{&HelloAck{Reason: strings.Repeat("x", MaxStringLen+1)}, "wire: string of 1025 bytes exceeds the 1024-byte limit"},
		{&ViewExchangeResp{Buf: make([]tagging.DigestRef, MaxListLen+1)}, "wire: list of 65537 elements exceeds the limit 65536"},
	} {
		var buf bytes.Buffer
		err := WriteMsg(NewWriter(&buf), c.m)
		if err == nil || err.Error() != c.wantErr {
			t.Errorf("%T: WriteMsg = %v, want %q", c.m, err, c.wantErr)
		}
		if buf.Len() != 0 {
			t.Errorf("%T: a refused frame still put %d bytes on the stream", c.m, buf.Len())
		}
	}

	atLimit := &ViewExchangeResp{Buf: make([]tagging.DigestRef, MaxListLen)}
	got, err := ReadMsg(NewReader(bytes.NewReader(encodeFrame(t, atLimit))))
	if err != nil || !reflect.DeepEqual(got, atLimit) {
		t.Fatalf("a list of exactly MaxListLen refs did not round-trip (err %v)", err)
	}
}

// BenchmarkWireRoundTrip is one encode plus one decode of a 10-ref
// TopExchangeReq — the lazy exchange's dominant frame — through
// per-connection carriers.
func BenchmarkWireRoundTrip(b *testing.B) {
	m := &TopExchangeReq{Seq: 4, Initiator: 5, Partner: 31, Offers: make([]tagging.DigestRef, 10)}
	var buf bytes.Buffer
	w, r := NewWriter(&buf), NewReader(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteMsg(w, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMsg(r); err != nil {
			b.Fatal(err)
		}
	}
}
