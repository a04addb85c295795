package sim

import "testing"

// TestLedgerCommitMatchesDirectSends holds Commit to the counters each
// message adds when accounted on its own: its kind and size at the sender
// and in the total, or a probe when the destination is offline.
func TestLedgerCommitMatchesDirectSends(t *testing.T) {
	recorded := NewNetwork(4)
	recorded.SetOnline(3, false)

	type msg struct {
		from, to NodeID
		kind     Kind
		bytes    int
	}
	msgs := []msg{
		{0, 1, MsgTopDigest, 100},
		{1, 0, MsgCommonItems, 40},
		{2, 3, MsgProfile, 900}, // offline dest: degrades to a probe
		{0, 2, MsgRandomView, 64},
	}
	var total Traffic
	perNode := make([]Traffic, 4)
	for _, m := range msgs {
		k, b := m.kind, m.bytes
		if m.to == 3 {
			k, b = MsgProbe, ProbeBytes
		}
		total.Add(k, b)
		perNode[m.from].Add(k, b)
	}
	l := recorded.NewLedger()
	for _, m := range msgs {
		l.Send(m.from, m.to, m.kind, m.bytes)
	}
	if l.Len() != len(msgs) {
		t.Fatalf("ledger recorded %d messages, want %d", l.Len(), len(msgs))
	}
	// Nothing is accounted before Commit.
	if recorded.Total().TotalMsgs() != 0 {
		t.Fatal("ledger sends leaked into network counters before Commit")
	}
	recorded.Commit(l)
	if l.Len() != 0 {
		t.Fatal("Commit did not empty the ledger")
	}
	if total != recorded.Total() {
		t.Fatalf("total counters diverge:\ndirect   %+v\nrecorded %+v", total, recorded.Total())
	}
	for u := 0; u < 4; u++ {
		if perNode[u] != recorded.NodeTraffic(NodeID(u)) {
			t.Fatalf("per-node counters diverge for node %d", u)
		}
	}
	if recorded.Total().Msgs[MsgProbe] != 1 {
		t.Fatal("offline destination was not degraded to a probe")
	}
}

func TestLedgerMerge(t *testing.T) {
	nw := NewNetwork(2)
	a, b := nw.NewLedger(), nw.NewLedger()
	a.Send(0, 1, MsgTopDigest, 10)
	b.Send(1, 0, MsgProfile, 20)
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merged ledger has %d records, want 2", a.Len())
	}
	nw.Commit(a)
	if nw.Total().TotalBytes() != 30 {
		t.Fatalf("committed %d bytes, want 30", nw.Total().TotalBytes())
	}
}

func TestLedgerMergeLeavesSourceIntact(t *testing.T) {
	// The sharded commit totals a plan's ledger after a shard committer has
	// absorbed it, so Merge must not drain the source.
	nw := NewNetwork(2)
	a, b := nw.NewLedger(), nw.NewLedger()
	b.Send(1, 0, MsgProfile, 20)
	a.Merge(b)
	if b.Len() != 1 || b.Total().TotalBytes() != 20 {
		t.Fatalf("Merge drained the source ledger: len=%d bytes=%d", b.Len(), b.Total().TotalBytes())
	}
}

func TestLedgerBytesSince(t *testing.T) {
	nw := NewNetwork(3)
	nw.SetOnline(2, false)
	l := nw.NewLedger()
	l.Send(0, 1, MsgTopDigest, 10)
	mark := l.Len()
	if got := l.BytesSince(mark); got != 0 {
		t.Fatalf("BytesSince at the mark = %d, want 0", got)
	}
	l.Send(0, 1, MsgCommonItems, 7)
	l.Send(0, 2, MsgProfile, 1000) // degrades to a probe: ProbeBytes counted
	if got, want := l.BytesSince(mark), uint64(7+ProbeBytes); got != want {
		t.Fatalf("BytesSince = %d, want %d", got, want)
	}
	if got := l.BytesSince(0); got != uint64(17+ProbeBytes) {
		t.Fatalf("BytesSince(0) = %d, want full total %d", got, 17+ProbeBytes)
	}
}

func TestLedgerOfflineSenderPanics(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetOnline(0, false)
	l := nw.NewLedger()
	defer func() {
		if recover() == nil {
			t.Fatal("ledger send from offline node did not panic")
		}
	}()
	l.Send(0, 1, MsgTopDigest, 1)
}
