package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"p3q/internal/tagging"
)

// goldenTrace is a fixed 2-user dataset and the exact bytes Save writes
// for it, one field per line: a change to the trace format shows up here
// as a reviewable diff.
func goldenTrace(t testing.TB) (*Dataset, []byte) {
	t.Helper()
	u0, u1 := tagging.NewProfile(0), tagging.NewProfile(1)
	u0.Add(5, 2)
	u0.Add(300, 7)
	u1.Add(5, 1)
	d := &Dataset{Profiles: []*tagging.Profile{u0, u1}, NumItems: 301, NumTags: 8}
	golden := strings.Join([]string{
		"30 51 33 50",             // magic "P3Q0"
		"02 00 00 00",             // users
		"2d 01 00 00",             // item ID space
		"08 00 00 00",             // tag ID space
		"00 00 00 00",             // user 0: owner
		"02 00 00 00",             //         actions
		"05 00 00 00 02 00 00 00", // (item 5, tag 2)
		"2c 01 00 00 07 00 00 00", // (item 300, tag 7)
		"01 00 00 00",             // user 1: owner
		"01 00 00 00",             //         actions
		"05 00 00 00 01 00 00 00", // (item 5, tag 1)
	}, " ")
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := fmt.Sprintf("% x", buf.Bytes()); got != golden {
		t.Fatalf("Save wrote\n%s\ngolden is\n%s", got, golden)
	}
	return d, buf.Bytes()
}

func TestSaveGolden(t *testing.T) {
	d, raw := goldenTrace(t)
	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Users() != 2 || got.NumItems != d.NumItems || got.NumTags != d.NumTags || got.TotalActions() != 3 {
		t.Fatalf("golden trace loaded as %d users, %d items, %d tags, %d actions",
			got.Users(), got.NumItems, got.NumTags, got.TotalActions())
	}
}

// TestLoadTruncatedAnywhere cuts the golden trace at every byte offset,
// field boundaries included: a short file is io.ErrUnexpectedEOF, never a
// bare io.EOF that a caller could take for a clean end.
func TestLoadTruncatedAnywhere(t *testing.T) {
	_, raw := goldenTrace(t)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Load(bytes.NewReader(raw[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d/%d: err = %v, want io.ErrUnexpectedEOF", cut, len(raw), err)
		}
	}
}

// hugeHeader is a well-formed 16-byte header claiming 2^24 users with not
// one profile behind it.
func hugeHeader() []byte {
	h := binary.LittleEndian.AppendUint32(nil, traceMagic)
	h = binary.LittleEndian.AppendUint32(h, maxUsers)
	return append(h, 0, 0, 0, 0, 0, 0, 0, 0)
}

// TestLoadDoesNotTrustTheHeaderCount holds Load to the rule of the other
// formats: nothing is allocated proportionally to an unvalidated length.
// Sizing the profile table from the claim alone would take 128 MiB.
func TestLoadDoesNotTrustTheHeaderCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(hugeHeader()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("Load allocated %d MiB on a 16-byte input", got>>20)
	}
}

func TestLoadRejects(t *testing.T) {
	_, raw := goldenTrace(t)
	patch := func(off int, v uint32) []byte {
		out := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	if _, err := Load(bytes.NewReader(patch(0, 0x12345678))); !errors.Is(err, errBadMagic) {
		t.Errorf("bad magic: err = %v, want errBadMagic", err)
	}
	if _, err := Load(bytes.NewReader(patch(4, maxUsers+1))); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("user count over the limit: err = %v", err)
	}
	if _, err := Load(bytes.NewReader(patch(16+8+16, 7))); err == nil || !strings.Contains(err.Error(), "must be dense") {
		t.Errorf("user 1 with owner field 7: err = %v", err)
	}
	// User 0's second action rewritten as a copy of the first: a trace is a
	// log of distinct actions, and a loader that drops the copy would hand
	// back a shorter profile than the header promised.
	twice := patch(16+8+8, 5)
	binary.LittleEndian.PutUint32(twice[16+8+12:], 2)
	if _, err := Load(bytes.NewReader(twice)); err == nil || !strings.Contains(err.Error(), "action 1 (5, 2) repeats an earlier one (user 0 of 2)") {
		t.Errorf("duplicated action: err = %v", err)
	}
}
