package peer

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p3q/internal/wire"
)

// serveOnPipe serves handle on one end of a net.Pipe the way a daemon
// serves an accepted connection and returns the client end with the
// bookkeeping serveConn shares with its listener.
func serveOnPipe(handle func(wire.Msg) wire.Msg) (client net.Conn, done *sync.WaitGroup, accepted *connSet) {
	client, server := net.Pipe()
	done, accepted = &sync.WaitGroup{}, &connSet{}
	accepted.add(server)
	done.Add(1)
	go serveConn(server, &wireCounters{}, handle, done, accepted)
	return client, done, accepted
}

// waitFor fails the test when wg is not released within a second: every
// wait in this file is for something that must happen promptly.
func waitFor(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	released := make(chan struct{})
	go func() { wg.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestRPCConnConcurrentCalls pins the mutex contract of rpcConn: callers
// sharing one link each get the response to their own request.
func TestRPCConnConcurrentCalls(t *testing.T) {
	client, done, _ := serveOnPipe(func(m wire.Msg) wire.Msg {
		return &wire.StepAck{Seq: m.(*wire.Step).Seq}
	})
	var counters wireCounters
	c := newRPCConn(client, &counters)
	const callers, calls = 8, 25
	var wg sync.WaitGroup
	for g := uint64(0); g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < calls; i++ {
				seq := g<<32 | i
				resp, err := c.Call(&wire.Step{Seq: seq})
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if ack, ok := resp.(*wire.StepAck); !ok || ack.Seq != seq {
					t.Errorf("caller %d call %d: got %#v, want StepAck{Seq: %#x}", g, i, resp, seq)
					return
				}
			}
		}()
	}
	waitFor(t, &wg, "the callers")
	if got := counters.msgs.Load(); got != callers*calls {
		t.Errorf("counted %d requests, want %d", got, callers*calls)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, done, "serveConn to see the hang-up")
}

// TestRPCConnPeerHangsUpMidCall: a peer that takes the request and closes
// without answering surfaces as the named awaiting-response error.
func TestRPCConnPeerHangsUpMidCall(t *testing.T) {
	client, done, _ := serveOnPipe(func(wire.Msg) wire.Msg { return nil })
	c := newRPCConn(client, &wireCounters{})
	resp, err := c.Call(&wire.Step{Seq: 1})
	const want = "peer: awaiting response to *wire.Step: "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Call = %#v, %v; want an error starting %q", resp, err, want)
	}
	waitFor(t, done, "serveConn to return")
}

// TestConnSetCloseAll: closeAll interrupts a serveConn parked in a read
// (the daemon's only way to shut down before its peers hang up) and the
// set refuses connections from then on.
func TestConnSetCloseAll(t *testing.T) {
	client, done, accepted := serveOnPipe(func(m wire.Msg) wire.Msg { return m })
	defer client.Close()
	accepted.closeAll()
	waitFor(t, done, "the parked serveConn")
	if n := len(accepted.conns); n != 0 {
		t.Errorf("%d connections still tracked after closeAll", n)
	}
	if accepted.add(client) {
		t.Error("add succeeded on a closed set")
	}
}

// pipeLink returns a link from daemon 0 to daemon 2 whose every dial is a
// fresh net.Pipe served by handle the way a daemon serves an accepted
// connection, and the number of dials so far.
func pipeLink(handle func(wire.Msg) wire.Msg) (*link, *atomic.Int32) {
	dials := new(atomic.Int32)
	return &link{from: 0, to: 2, timeout: time.Second, dial: func() (net.Conn, error) {
		dials.Add(1)
		client, _, _ := serveOnPipe(handle)
		return client, nil
	}}, dials
}

// echoSeq answers a Step with a StepAck carrying the same Seq.
func echoSeq(m wire.Msg) wire.Msg { return &wire.StepAck{Seq: m.(*wire.Step).Seq} }

// callSeq runs one echoSeq conversation and checks the caller got the
// answer to its own request.
func callSeq(t *testing.T, l *link, plane *wireCounters, seq uint64) {
	t.Helper()
	resp, err := l.call(plane, &wire.Step{Seq: seq})
	if err != nil {
		t.Errorf("call %#x: %v", seq, err)
	} else if ack, ok := resp.(*wire.StepAck); !ok || ack.Seq != seq {
		t.Errorf("call %#x: got %#v, want StepAck{Seq: %#x}", seq, resp, seq)
	}
}

// TestLinkSequentialCallsReuseOneConnection: conversations that follow one
// another share a connection; the link dials only when none is idle.
func TestLinkSequentialCallsReuseOneConnection(t *testing.T) {
	l, dials := pipeLink(echoSeq)
	defer l.open.closeAll()
	var plane wireCounters
	for seq := uint64(0); seq < 20; seq++ {
		callSeq(t, l, &plane, seq)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("20 sequential calls dialed %d connections, want 1", n)
	}
	if n := plane.msgs.Load(); n != 20 {
		t.Errorf("counted %d requests, want 20", n)
	}
}

// TestLinkConcurrentCallsGetTheirOwnConnections: the handler answers
// nobody until all N requests are in, so N conversations are provably under
// way at once — one mutex-guarded connection would deadlock right here —
// and the link opens exactly N connections, then reuses them.
func TestLinkConcurrentCallsGetTheirOwnConnections(t *testing.T) {
	const callers = 8
	var arrived sync.WaitGroup
	arrived.Add(callers)
	l, dials := pipeLink(func(m wire.Msg) wire.Msg {
		if m.(*wire.Step).Seq < callers { // first round only
			arrived.Done()
			arrived.Wait()
		}
		return echoSeq(m)
	})
	defer l.open.closeAll()
	var plane wireCounters
	for round := uint64(0); round < 2; round++ {
		var wg sync.WaitGroup
		for g := uint64(0); g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				callSeq(t, l, &plane, round*callers+g)
			}()
		}
		waitFor(t, &wg, "the callers")
	}
	if n := dials.Load(); n != callers {
		t.Errorf("%d concurrent conversations dialed %d connections, want %d", callers, n, callers)
	}
	if open, idle := len(l.open.conns), len(l.idle); open != callers || idle != callers {
		t.Errorf("link holds %d connections, %d idle; want %d and %d", open, idle, callers, callers)
	}
}

// TestLinkDropsAConnectionWhoseCallFailed: a peer that hangs up mid-call
// fails that call by name, the connection is gone from the link, and the
// next call succeeds on a fresh one.
func TestLinkDropsAConnectionWhoseCallFailed(t *testing.T) {
	var served atomic.Int32
	l, dials := pipeLink(func(m wire.Msg) wire.Msg {
		if served.Add(1) == 1 {
			return nil // take the request, hang up
		}
		return echoSeq(m)
	})
	defer l.open.closeAll()
	var plane wireCounters
	resp, err := l.call(&plane, &wire.Step{Seq: 1})
	const want = "peer: daemon 0 → 2: peer: awaiting response to *wire.Step: "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("call = %#v, %v; want an error starting %q", resp, err, want)
	}
	if open, idle := len(l.open.conns), len(l.idle); open != 0 || idle != 0 {
		t.Errorf("after the failed call the link holds %d connections, %d idle; want none", open, idle)
	}
	callSeq(t, l, &plane, 2)
	if n := dials.Load(); n != 2 {
		t.Errorf("dialed %d connections, want 2", n)
	}
}

// TestLinkCallDeadline: a handler that never answers costs the caller at
// most two of the link's timeouts, not forever, and the error names the
// peer and the message.
func TestLinkCallDeadline(t *testing.T) {
	release := make(chan struct{})
	l, _ := pipeLink(func(wire.Msg) wire.Msg { <-release; return nil })
	defer close(release)
	l.timeout = 20 * time.Millisecond
	resp, err := l.call(&wireCounters{}, &wire.Step{Seq: 1})
	const want = "peer: daemon 0 → 2: *wire.Step: deadline exceeded"
	if err == nil || err.Error() != want {
		t.Fatalf("call = %#v, %v; want the error %q", resp, err, want)
	}
	if open, idle := len(l.open.conns), len(l.idle); open != 0 || idle != 0 {
		t.Errorf("the timed-out connection is still in the link (%d open, %d idle)", open, idle)
	}
}

// TestLinkCloseInterruptsAParkedCall: closing the link is how a daemon
// shuts down while a conversation is parked on a peer, and a closed link
// dials no more.
func TestLinkCloseInterruptsAParkedCall(t *testing.T) {
	release, parked := make(chan struct{}), make(chan struct{})
	l, _ := pipeLink(func(wire.Msg) wire.Msg { close(parked); <-release; return nil })
	defer close(release)
	l.timeout = time.Minute
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, err := l.call(&wireCounters{}, &wire.Step{Seq: 1}); err == nil {
			t.Errorf("the interrupted call returned %#v", resp)
		}
	}()
	<-parked
	l.open.closeAll()
	waitFor(t, &wg, "the parked call")
	if _, err := l.call(&wireCounters{}, &wire.Step{Seq: 2}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("call on a closed link: %v, want net.ErrClosed", err)
	}
}

// TestLinkCountsOnThePlaneOfTheCall: the plane is a label passed per call,
// not a property of the connection — one connection tallies each request on
// whichever plane its caller named.
func TestLinkCountsOnThePlaneOfTheCall(t *testing.T) {
	l, dials := pipeLink(echoSeq)
	defer l.open.closeAll()
	var data, ctrl wireCounters
	callSeq(t, l, &data, 1)
	callSeq(t, l, &ctrl, 2)
	callSeq(t, l, &ctrl, 3)
	if dials.Load() != 1 {
		t.Fatalf("dialed %d connections, want the one shared by all three calls", dials.Load())
	}
	frame := data.bytes.Load()
	if data.msgs.Load() != 1 || frame == 0 {
		t.Errorf("data plane: %d msgs, %d bytes; want 1 msg of non-zero size", data.msgs.Load(), frame)
	}
	if ctrl.msgs.Load() != 2 || ctrl.bytes.Load() != 2*frame {
		t.Errorf("ctrl plane: %d msgs, %d bytes; want 2 msgs, %d bytes", ctrl.msgs.Load(), ctrl.bytes.Load(), 2*frame)
	}
}
