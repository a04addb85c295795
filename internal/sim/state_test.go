package sim

import (
	"testing"
	"time"
)

// Tests for the checkpoint-facing state accessors: the event queue's
// Pending/RestorePending pair and the network traffic restore.

func TestEventQueuePendingRestoreRoundTrip(t *testing.T) {
	q := NewEventQueue()
	q.Schedule(3*time.Second, "c")
	q.Schedule(time.Second, "a")
	q.Schedule(time.Second, "b") // same time: scheduling order breaks the tie
	q.Schedule(2*time.Second, "d")
	if _, ok := q.PopUntil(time.Second); !ok {
		t.Fatal("no due event")
	}

	pending := q.Pending()
	nextSeq := q.NextSeq()
	r := NewEventQueue()
	if err := r.RestorePending(pending, nextSeq); err != nil {
		t.Fatal(err)
	}
	if r.NextSeq() != nextSeq {
		t.Fatalf("NextSeq = %d, want %d", r.NextSeq(), nextSeq)
	}
	// Interleave a fresh Schedule to prove the Seq sequence continues.
	q.Schedule(time.Second, "e")
	r.Schedule(time.Second, "e")
	for {
		want, okW := q.PopUntil(time.Hour)
		got, okG := r.PopUntil(time.Hour)
		if okW != okG {
			t.Fatalf("queues drained differently: %v vs %v", okW, okG)
		}
		if !okW {
			break
		}
		if want != got {
			t.Fatalf("restored queue popped %+v, want %+v", got, want)
		}
	}
}

func TestEventQueueRestoreRejectsBadInput(t *testing.T) {
	mk := func(at time.Duration, seq uint64) Event { return Event{At: at, Seq: seq} }
	q := NewEventQueue()
	if err := q.RestorePending([]Event{mk(1, 5)}, 5); err == nil {
		t.Fatal("accepted Seq >= nextSeq")
	}
	if err := q.RestorePending([]Event{mk(1, 0), mk(1, 0)}, 2); err == nil {
		t.Fatal("accepted duplicate Seq")
	}
	if err := q.RestorePending([]Event{mk(2, 0), mk(1, 1)}, 2); err == nil {
		t.Fatal("accepted events out of (At, Seq) order")
	}
}

func TestTrafficSnapshotRestoreRoundTrip(t *testing.T) {
	n := NewNetwork(2)
	send(n, 0, 1, MsgProfile, 64)
	send(n, 1, 0, MsgQueryForward, 9)
	src := n.Total()

	msgs, bytes := src.Snapshot()
	var dst Traffic
	dst.Restore(msgs, bytes)
	if dst != src {
		t.Fatalf("restored Traffic = %+v, want %+v", dst, src)
	}
}

func TestNetworkRestoreTraffic(t *testing.T) {
	src := NewNetwork(3)
	send(src, 0, 1, MsgProfile, 100)
	send(src, 2, 0, MsgTopDigest, 40)

	dst := NewNetwork(3)
	dst.RestoreTraffic(src.Total())
	if dst.Total() != src.Total() {
		t.Fatal("total traffic not restored")
	}
}
