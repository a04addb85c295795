package peer

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"p3q/internal/core"
	"p3q/internal/trace"
	"p3q/internal/wire"
)

// startDaemons builds and starts n small daemons on one fabric without
// connecting them.
func startDaemons(t *testing.T, n int) (*Fabric, []*Daemon) {
	t.Helper()
	fabric := NewFabric()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = string(rune('a' + i))
	}
	var daemons []*Daemon
	for i := range addrs {
		d, err := New(Config{Index: i, Addrs: addrs, Gen: trace.DefaultGenParams(30), Engine: core.DefaultConfig()}, fabric)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		daemons = append(daemons, d)
	}
	return fabric, daemons
}

// frameOf encodes m as one wire frame.
func frameOf(t *testing.T, m wire.Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteMsg(wire.NewWriter(&buf), m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHandlerBadFrameClosesOnlyItsConnection: a frame the daemon cannot
// take — an unknown message type, a foreign protocol version, a response
// sent as a request — closes the one accepted connection it arrived on and
// poisons nothing: the stream-level rejects leave every counter alone,
// handle's "protocol confusion" case bumps divergence by one, and a fresh
// connection to the same daemon still answers Stats.
func TestHandlerBadFrameClosesOnlyItsConnection(t *testing.T) {
	fabric, _ := startDaemons(t, 1)
	stats := frameOf(t, &wire.Stats{})
	patched := func(offset int, v uint16) []byte {
		f := bytes.Clone(stats)
		binary.LittleEndian.PutUint16(f[offset:], v)
		return f
	}
	for _, tc := range []struct {
		name       string
		frame      []byte
		divergence uint64 // cumulative
	}{
		{"unknown message type", patched(6, 0xFFFF), 0},
		{"foreign version", patched(4, wire.Version+1), 0},
		{"response sent as a request", frameOf(t, &wire.StepAck{Seq: 1}), 1},
	} {
		conn, err := fabric.Dial("a")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.frame); err != nil {
			t.Fatalf("%s: writing the frame: %v", tc.name, err)
		}
		if n, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s: the daemon answered (%d bytes) instead of hanging up", tc.name, n)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: the daemon kept the connection open", tc.name)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}

		cl, err := DialClient(fabric, "a")
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Stats()
		cl.Close()
		if err != nil {
			t.Fatalf("%s: stats on a fresh connection: %v", tc.name, err)
		}
		if st.Divergence != tc.divergence || st.LazyCycles != 0 || st.EagerCycles != 0 || len(st.Queries) != 0 {
			t.Errorf("%s: daemon state moved: divergence %d (want %d), %d lazy and %d eager cycles, %d queries",
				tc.name, st.Divergence, tc.divergence, st.LazyCycles, st.EagerCycles, len(st.Queries))
		}
	}
}

// TestHandlerStepWaitsForTheReadyGate: a Step that reaches a member before
// its own Connect finished is held — its exchange phase calls every peer —
// and answered once the mesh is up and the lead has stepped and exchanged
// the same cycle.
func TestHandlerStepWaitsForTheReadyGate(t *testing.T) {
	fabric, daemons := startDaemons(t, 2)
	conn, err := fabric.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc := newRPCConn(conn, &wireCounters{})
	acked := make(chan wire.Msg, 1)
	go func() {
		resp, err := rc.Call(&wire.Step{Kind: wire.StepLazy, Seq: 0})
		if err != nil {
			t.Errorf("step: %v", err)
		}
		acked <- resp
	}()
	select {
	case resp := <-acked:
		t.Fatalf("member stepped before Connect: %#v", resp)
	case <-time.After(50 * time.Millisecond):
	}
	if n := daemons[1].Engine().LazyCycles(); n != 0 {
		t.Fatalf("replica ran %d lazy cycles behind the gate", n)
	}
	if err := daemons[1].Connect(); err != nil {
		t.Fatal(err)
	}
	if err := daemons[0].exchangePhase(daemons[0].stepLocal(wire.StepLazy)); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-acked:
		if ack, ok := resp.(*wire.StepAck); !ok || ack.Seq != 0 {
			t.Errorf("got %#v, want StepAck{Seq: 0}", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the held Step was not answered after Connect")
	}
	for i, d := range daemons {
		if n := d.Divergence(); n != 0 {
			t.Errorf("daemon %d: %d divergences", i, n)
		}
	}
}

// TestHandlerStrayPartialKeepsTheWaitOpen: during an eager cycle that owes
// one partial result, a PartialResult the capture does not owe costs
// exactly one divergence and does not count toward the owed deliveries —
// the exchange phase keeps waiting until the owed one arrives.
func TestHandlerStrayPartialKeepsTheWaitOpen(t *testing.T) {
	_, daemons := startDaemons(t, 1)
	d := daemons[0]
	if err := d.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := d.RunLazyCycles(8); err != nil {
		t.Fatal(err)
	}
	for _, q := range trace.GenerateQueries(d.Engine().Dataset(), 3)[:4] {
		if _, err := d.SubmitQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	cs := d.stepLocal(wire.StepEager)
	var owed []*core.EagerPairCap
	for i := range cs.eager.Pairs {
		if pc := &cs.eager.Pairs[i]; pc.Ok && pc.Delivered {
			owed = append(owed, pc)
		}
	}
	if len(owed) == 0 {
		t.Fatal("the first eager cycle owes no partial result; the fixture cannot test the wait")
	}
	// Deliver all but one owed partial, so the cycle owes exactly one.
	last := owed[len(owed)-1]
	for _, pc := range owed[:len(owed)-1] {
		if err := d.deliverPartial(cs, pc); err != nil {
			t.Fatal(err)
		}
	}
	isOpen := func() bool {
		select {
		case <-cs.partialsDone:
			return false
		default:
			return true
		}
	}
	if n := d.Divergence(); n != 0 || !isOpen() {
		t.Fatalf("before the stray: divergence %d, wait open %v", n, isOpen())
	}

	d.acceptPartial(&wire.PartialResult{Seq: cs.seq, Qid: 1 << 40, Initiator: last.Initiator, From: last.Dest, Querier: last.Querier})
	if n := d.Divergence(); n != 1 {
		t.Errorf("a stray partial cost %d divergences, want 1", n)
	}
	if !isOpen() {
		t.Fatal("a stray partial released the wait for the owed one")
	}
	if err := d.deliverPartial(cs, last); err != nil {
		t.Fatal(err)
	}
	if isOpen() {
		t.Error("the last owed partial did not release the wait")
	}
	if n := d.Divergence(); n != 1 {
		t.Errorf("owed deliveries moved divergence to %d", n)
	}
}

// TestHandlerRequestBeforeTheStepIsHeld: a request for a cycle its
// responder has not stepped yet waits for that step instead of being
// charged as a divergence. The lead steps and exchanges while the member
// is held back, then the member catches up. In the lazy cycle the lead's
// requests wait in currentCycle; in the eager cycle its first request is a
// partial result owed to a querier the member hosts, which waits in
// acceptPartial.
func TestHandlerRequestBeforeTheStepIsHeld(t *testing.T) {
	_, daemons := startDaemons(t, 2)
	lead, member := daemons[0], daemons[1]
	for _, d := range daemons {
		if err := d.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	leadFirst := func(kind uint8) *cycleState {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- lead.exchangePhase(lead.stepLocal(kind)) }()
		select {
		case err := <-done:
			t.Fatalf("kind %d: the lead's exchange phase returned (%v) before the member stepped", kind, err)
		case <-time.After(50 * time.Millisecond):
		}
		cs := member.stepLocal(kind)
		if err := member.exchangePhase(cs); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return cs
	}

	leadFirst(wire.StepLazy)
	if err := lead.RunLazyCycles(7); err != nil {
		t.Fatal(err)
	}
	q := trace.GenerateQueries(lead.Engine().Dataset(), 3)[21]
	if _, err := lead.SubmitQuery(q); err != nil {
		t.Fatal(err)
	}
	if err := lead.RunEagerCycle(); err != nil {
		t.Fatal(err)
	}
	cs := leadFirst(wire.StepEager)
	first := "no call"
	for i := range cs.eager.Pairs { // runEagerExchanges' walk, on the lead
		if pc := &cs.eager.Pairs[i]; lead.hosts(pc.Initiator) && pc.Ok {
			if !lead.hosts(pc.Dest) {
				first = "a forward"
				break
			}
			if pc.Delivered && member.hosts(pc.Querier) {
				first = "a partial result"
				break
			}
		}
	}
	if first != "a partial result" {
		t.Fatalf("the lead's first eager request to the member is %s; the fixture cannot test acceptPartial's wait", first)
	}
	for i, d := range daemons {
		if n := d.Divergence(); n != 0 {
			t.Errorf("daemon %d: %d divergences", i, n)
		}
	}
}

// TestHandlerCloseReleasesAHeldRequest: a request for a cycle the daemon
// never steps returns once the daemon is closed, long before callTimeout,
// and costs one divergence.
func TestHandlerCloseReleasesAHeldRequest(t *testing.T) {
	_, daemons := startDaemons(t, 1)
	d := daemons[0]
	done := make(chan struct{})
	go func() {
		d.handle(&wire.PartialResult{Seq: 3})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("a partial result for a cycle the daemon never stepped was not held")
	case <-time.After(50 * time.Millisecond):
	}
	d.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the held request")
	}
	if n := d.Divergence(); n != 1 {
		t.Errorf("the released request cost %d divergences, want 1", n)
	}
}
