package peer

import (
	"net"
	"strings"
	"sync"
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
		return &wire.StepAck{Seq: m.(*wire.ExchangeGo).Seq}
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
				resp, err := c.Call(&wire.ExchangeGo{Seq: seq})
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
	resp, err := c.Call(&wire.ExchangeGo{Seq: 1})
	const want = "peer: awaiting response to *wire.ExchangeGo: "
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
