package sim

import (
	"testing"

	"p3q/internal/randx"
)

func TestKindString(t *testing.T) {
	if MsgRandomView.String() != "random-view" {
		t.Fatalf("got %q", MsgRandomView.String())
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind produced empty string")
	}
}

func TestTrafficAddAndTotals(t *testing.T) {
	var tr Traffic
	tr.Add(MsgTopDigest, 100)
	tr.Add(MsgTopDigest, 50)
	tr.Add(MsgProfile, 1000)
	if tr.Msgs[MsgTopDigest] != 2 || tr.Bytes[MsgTopDigest] != 150 {
		t.Fatalf("digest counters = %d msgs / %d bytes", tr.Msgs[MsgTopDigest], tr.Bytes[MsgTopDigest])
	}
	if tr.TotalMsgs() != 3 || tr.TotalBytes() != 1150 {
		t.Fatalf("totals = %d msgs / %d bytes", tr.TotalMsgs(), tr.TotalBytes())
	}
}

func TestTrafficSince(t *testing.T) {
	var tr Traffic
	tr.Add(MsgProfile, 10)
	cp := tr
	tr.Add(MsgProfile, 5)
	tr.Add(MsgQueryForward, 7)
	d := tr.Since(cp)
	if d.Bytes[MsgProfile] != 5 || d.Msgs[MsgProfile] != 1 {
		t.Fatalf("diff profile = %d bytes / %d msgs", d.Bytes[MsgProfile], d.Msgs[MsgProfile])
	}
	if d.Bytes[MsgQueryForward] != 7 {
		t.Fatalf("diff forward = %d bytes", d.Bytes[MsgQueryForward])
	}
}

func TestNetworkLiveness(t *testing.T) {
	nw := NewNetwork(10)
	if nw.OnlineCount() != 10 {
		t.Fatalf("new network: online=%d, want 10", nw.OnlineCount())
	}
	nw.SetOnline(3, false)
	if nw.Online(3) || nw.OnlineCount() != 9 {
		t.Fatal("SetOnline(false) not reflected")
	}
	nw.SetOnline(3, false) // idempotent
	if nw.OnlineCount() != 9 {
		t.Fatal("double SetOnline(false) double-counted")
	}
	nw.SetOnline(3, true)
	if !nw.Online(3) || nw.OnlineCount() != 10 {
		t.Fatal("SetOnline(true) not reflected")
	}
}

// send records one message through a ledger and commits it, the engine's
// only way into the network's counters.
func send(nw *Network, from, to NodeID, k Kind, bytes int) bool {
	l := nw.NewLedger()
	ok := l.Send(from, to, k, bytes)
	nw.Commit(l)
	return ok
}

func TestSendDelivery(t *testing.T) {
	nw := NewNetwork(5)
	if !send(nw, 0, 1, MsgProfile, 500) {
		t.Fatal("send to online node failed")
	}
	if nw.Total().Bytes[MsgProfile] != 500 {
		t.Fatalf("global bytes = %d", nw.Total().Bytes[MsgProfile])
	}
	if nw.NodeTraffic(0).Bytes[MsgProfile] != 500 {
		t.Fatal("sender traffic not recorded")
	}
	if nw.NodeTraffic(1).TotalBytes() != 0 {
		t.Fatal("receiver charged for inbound traffic")
	}
}

func TestSendToOfflineRecordsProbe(t *testing.T) {
	nw := NewNetwork(5)
	nw.SetOnline(2, false)
	if send(nw, 0, 2, MsgProfile, 500) {
		t.Fatal("send to offline node reported success")
	}
	tr := nw.Total()
	if tr.Bytes[MsgProfile] != 0 {
		t.Fatal("payload bytes charged for failed send")
	}
	if tr.Msgs[MsgProbe] != 1 || tr.Bytes[MsgProbe] != ProbeBytes {
		t.Fatalf("probe not recorded: %+v", tr)
	}
}

func TestSendFromOfflinePanics(t *testing.T) {
	nw := NewNetwork(5)
	nw.SetOnline(0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("offline sender did not panic")
		}
	}()
	send(nw, 0, 1, MsgProfile, 1)
}

func TestKillFraction(t *testing.T) {
	nw := NewNetwork(1000)
	rng := randx.NewSource(1)
	killed := nw.Kill(0.3, rng)
	if len(killed) != 300 {
		t.Fatalf("killed %d nodes, want 300", len(killed))
	}
	if nw.OnlineCount() != 700 {
		t.Fatalf("online = %d, want 700", nw.OnlineCount())
	}
	for _, u := range killed {
		if nw.Online(u) {
			t.Fatalf("killed node %d still online", u)
		}
	}
}

func TestKillZeroAndClamp(t *testing.T) {
	nw := NewNetwork(10)
	if got := nw.Kill(0, randx.NewSource(1)); got != nil {
		t.Fatalf("Kill(0) killed %d", len(got))
	}
	killed := nw.Kill(5, randx.NewSource(2)) // clamped to 1.0
	if len(killed) != 10 || nw.OnlineCount() != 0 {
		t.Fatalf("Kill(5) killed %d, online=%d", len(killed), nw.OnlineCount())
	}
}

func TestKillOnlyOnlineNodes(t *testing.T) {
	nw := NewNetwork(100)
	first := nw.Kill(0.5, randx.NewSource(3))
	second := nw.Kill(1.0, randx.NewSource(4))
	if len(first)+len(second) != 100 {
		t.Fatalf("total killed = %d, want 100", len(first)+len(second))
	}
	seen := make(map[NodeID]bool)
	for _, u := range append(first, second...) {
		if seen[u] {
			t.Fatalf("node %d killed twice", u)
		}
		seen[u] = true
	}
}

func TestKillDeterministic(t *testing.T) {
	a := NewNetwork(50)
	b := NewNetwork(50)
	ka := a.Kill(0.2, randx.NewSource(9))
	kb := b.Kill(0.2, randx.NewSource(9))
	if len(ka) != len(kb) {
		t.Fatal("same seed killed different counts")
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatal("same seed killed different nodes")
		}
	}
}

func TestPerNodeTrafficSumsToTotal(t *testing.T) {
	nw := NewNetwork(6)
	rngSends := []struct {
		from, to NodeID
		k        Kind
		b        int
	}{
		{0, 1, MsgProfile, 100}, {1, 2, MsgTopDigest, 50},
		{2, 0, MsgPartialResult, 70}, {3, 4, MsgQueryForward, 10},
	}
	for _, s := range rngSends {
		send(nw, s.from, s.to, s.k, s.b)
	}
	nw.SetOnline(5, false)
	send(nw, 0, 5, MsgProfile, 999) // probe
	var sumBytes, sumMsgs uint64
	for u := 0; u < 6; u++ {
		sumBytes += nw.NodeTraffic(NodeID(u)).TotalBytes()
		sumMsgs += nw.NodeTraffic(NodeID(u)).TotalMsgs()
	}
	total := nw.Total()
	if sumBytes != total.TotalBytes() || sumMsgs != total.TotalMsgs() {
		t.Fatalf("per-node traffic (%d B / %d msgs) != total (%d B / %d msgs)",
			sumBytes, sumMsgs, total.TotalBytes(), total.TotalMsgs())
	}
}

func TestTrafficSinceIsInverseOfMerge(t *testing.T) {
	var base, delta Traffic
	base.Add(MsgProfile, 10)
	delta.Add(MsgTopDigest, 5)
	delta.Add(MsgProbe, 8)
	combined := base // base with delta's messages added on top
	combined.Add(MsgTopDigest, 5)
	combined.Add(MsgProbe, 8)
	diff := combined.Since(base)
	if diff != delta {
		t.Fatalf("Since does not take base back out: %+v vs %+v", diff, delta)
	}
}
