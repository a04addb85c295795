package sim

import "testing"

// TestLedgerCommitMatchesDirectSends holds Commit to the counters each
// message adds when accounted on its own: its kind and size, or a probe
// when the destination is offline.
func TestLedgerCommitMatchesDirectSends(t *testing.T) {
	recorded := NewNetwork(4)
	recorded.SetOnline(3, false)

	var total Traffic
	for _, m := range ledgerMsgs {
		k, b := m.kind, m.bytes
		if m.to == 3 {
			k, b = MsgProbe, ProbeBytes
		}
		total.Add(k, b)
	}
	l := recorded.NewLedger()
	for _, m := range ledgerMsgs {
		l.Send(m.from, m.to, m.kind, m.bytes)
	}
	if l.Total() != total {
		t.Fatalf("ledger counted %+v, want %+v", l.Total(), total)
	}
	// Nothing is accounted before Commit.
	if recorded.Total().TotalMsgs() != 0 {
		t.Fatal("ledger sends leaked into network counters before Commit")
	}
	recorded.Commit(l)
	if l.Total() != (Traffic{}) {
		t.Fatal("Commit did not empty the ledger")
	}
	if total != recorded.Total() {
		t.Fatalf("total counters diverge:\ndirect   %+v\nrecorded %+v", total, recorded.Total())
	}
	if recorded.Total().Msgs[MsgProbe] != 1 {
		t.Fatal("offline destination was not degraded to a probe")
	}
}

type ledgerMsg struct {
	from, to NodeID
	kind     Kind
	bytes    int
}

// ledgerMsgs are sent on a four-node network whose node 3 is offline.
var ledgerMsgs = []ledgerMsg{
	{0, 1, MsgTopDigest, 100},
	{1, 0, MsgCommonItems, 40},
	{2, 3, MsgProfile, 900}, // offline dest: degrades to a probe
	{0, 2, MsgRandomView, 64},
	{2, 1, MsgTopDigest, 7},
}

// TestLedgerMerge: however the sends are split across two ledgers, and
// whether the second is merged into the first or committed on its own, the
// network ends up with the totals of one ledger that saw every send.
func TestLedgerMerge(t *testing.T) {
	want := NewNetwork(4)
	want.SetOnline(3, false)
	all := want.NewLedger()
	for _, m := range ledgerMsgs {
		all.Send(m.from, m.to, m.kind, m.bytes)
	}
	want.Commit(all)
	for split := 0; split < 1<<len(ledgerMsgs); split++ {
		for _, merge := range []bool{false, true} {
			nw := NewNetwork(4)
			nw.SetOnline(3, false)
			a, b := nw.NewLedger(), nw.NewLedger()
			for i, m := range ledgerMsgs {
				l := a
				if split>>i&1 == 1 {
					l = b
				}
				l.Send(m.from, m.to, m.kind, m.bytes)
			}
			if merge {
				a.Merge(b)
			} else {
				nw.Commit(b)
			}
			nw.Commit(a)
			if nw.Total() != want.Total() {
				t.Fatalf("split %05b (merge %v): committed %+v, want %+v", split, merge, nw.Total(), want.Total())
			}
		}
	}
}

func TestLedgerMergeLeavesSourceIntact(t *testing.T) {
	// The sharded commit totals a plan's ledger after a shard committer has
	// absorbed it, so Merge must not drain the source.
	nw := NewNetwork(2)
	a, b := nw.NewLedger(), nw.NewLedger()
	b.Send(1, 0, MsgProfile, 20)
	a.Merge(b)
	if b.Total().TotalMsgs() != 1 || b.Total().TotalBytes() != 20 {
		t.Fatalf("Merge drained the source ledger: msgs=%d bytes=%d", b.Total().TotalMsgs(), b.Total().TotalBytes())
	}
}

// TestLedgerByteTotalDifference: the difference of a ledger's byte totals
// around a run of sends is the bytes of that run, probes included — how
// the sharded commit attributes an integration's step-2/step-3 traffic.
func TestLedgerByteTotalDifference(t *testing.T) {
	nw := NewNetwork(3)
	nw.SetOnline(2, false)
	l := nw.NewLedger()
	l.Send(0, 1, MsgTopDigest, 10)
	mark := l.Total().TotalBytes()
	if got := l.Total().TotalBytes() - mark; got != 0 {
		t.Fatalf("bytes since the mark = %d, want 0", got)
	}
	l.Send(0, 1, MsgCommonItems, 7)
	l.Send(0, 2, MsgProfile, 1000) // degrades to a probe: ProbeBytes counted
	if got, want := l.Total().TotalBytes()-mark, uint64(7+ProbeBytes); got != want {
		t.Fatalf("bytes since the mark = %d, want %d", got, want)
	}
	if got := l.Total().TotalBytes(); got != uint64(17+ProbeBytes) {
		t.Fatalf("total bytes = %d, want %d", got, 17+ProbeBytes)
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
