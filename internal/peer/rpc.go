package peer

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"p3q/internal/wire"
)

// Planes label why bytes were sent. A daemon reaches a peer one way only
// (see link), and the call site names the purpose, so the stats surface
// still shows where the volume goes: data is the exchange conversations
// and partial results, ctrl the lead's lockstep broadcasts, gateway a
// member's submit relay to the lead, and served is everything written on
// accepted connections (the answering side does not know the caller's
// purpose, so inbound volume pools).
const (
	planeData = iota
	planeCtrl
	planeGateway
	planeServed
	numPlanes
)

// planeNames label the planes on the /metrics page.
var planeNames = [numPlanes]string{"data", "ctrl", "gateway", "served"}

// wireCounters tallies raw wire volume for one plane.
type wireCounters struct {
	msgs  atomic.Uint64
	bytes atomic.Uint64
}

// countingConn counts the bytes a connection puts on the wire. A link
// re-points counters at the plane of each conversation while it owns the
// connection.
type countingConn struct {
	net.Conn
	counters *wireCounters
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counters.bytes.Add(uint64(n))
	return n, err
}

// rpcConn is the calling side of one connection: a synchronous
// request/response channel. Calls are serialized by the mutex, so the
// connection carries one conversation at a time and responses can never
// interleave. A link hands each connection to one caller at a time and
// never contends on it; a Client shared between goroutines does.
type rpcConn struct {
	mu sync.Mutex
	cc *countingConn
	w  *wire.Writer
	r  *wire.Reader

	deadline time.Time // armed on the connection by its link, zero on a Client's
}

func newRPCConn(c net.Conn, counters *wireCounters) *rpcConn {
	cc := &countingConn{Conn: c, counters: counters}
	return &rpcConn{cc: cc, w: wire.NewWriter(cc), r: wire.NewReader(cc)}
}

// Call sends req and blocks for the response.
func (c *rpcConn) Call(req wire.Msg) (wire.Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := wire.WriteMsg(c.w, req); err != nil {
		return nil, fmt.Errorf("peer: sending %T: %w", req, err)
	}
	c.cc.counters.msgs.Add(1)
	resp, err := wire.ReadMsg(c.r)
	if err != nil {
		return nil, fmt.Errorf("peer: awaiting response to %T: %w", req, err)
	}
	return resp, nil
}

// Close tears the connection down.
func (c *rpcConn) Close() error { return c.cc.Close() }

// callTimeout bounds one conversation, handler time included: a call gets
// at least this long and at most twice as long (see link.call). The longest
// handler is a member's Step, its whole step and exchange phase, which
// itself waits up to 30 s for partial results, so the bound sits above
// that. It also bounds how long a request waits for its responder to step
// the request's cycle (awaitCycle).
const callTimeout = time.Minute

// link is the one way a daemon reaches a peer. A connection carries one
// conversation, and the link opens as many connections as it has
// conversations under way: call takes an idle connection or dials one,
// owns it for write-then-read, and puts it back. So a call never queues
// behind another call — it blocks only on its own remote handler — which
// is the whole deadlock argument (ARCHITECTURE.md, "Lockstep cycles").
// Connections are never shared and never trimmed; the link holds as many
// as its busiest moment needed.
type link struct {
	from, to int // daemon indexes, for error texts
	dial     func() (net.Conn, error)
	timeout  time.Duration // what a call gets at least; callTimeout outside tests

	mu   sync.Mutex
	idle []*rpcConn
	open connSet // every live connection, idle or not; closeAll interrupts parked calls
}

// call runs one conversation on a connection of its own and tallies the
// request on plane. The connection's deadline covers the conversation,
// write and read; it is pushed out to two timeouts whenever less than one
// is left rather than armed and cleared around every call, because arming
// costs a net.Pipe two timers (+14 % alloc_kb_per_op on cluster-lazy-3d).
// A connection whose call failed — a timed-out one included — is closed
// and dropped, never reused: its stream may hold half a frame.
func (l *link) call(plane *wireCounters, req wire.Msg) (wire.Msg, error) {
	c, err := l.take()
	if err != nil {
		return nil, fmt.Errorf("peer: daemon %d → %d: %w", l.from, l.to, err)
	}
	c.cc.counters = plane
	if now := time.Now(); c.deadline.Sub(now) < l.timeout {
		c.deadline = now.Add(2 * l.timeout)
		err = c.cc.SetDeadline(c.deadline)
	}
	var resp wire.Msg
	if err == nil {
		resp, err = c.Call(req)
	}
	if err != nil {
		l.open.remove(c.cc.Conn)
		if cerr := c.Close(); cerr != nil {
			_ = cerr // the failed call is the error worth reporting
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("%T: deadline exceeded", req)
		}
		return nil, fmt.Errorf("peer: daemon %d → %d: %w", l.from, l.to, err)
	}
	l.mu.Lock()
	l.idle = append(l.idle, c)
	l.mu.Unlock()
	return resp, nil
}

// take returns an idle connection, or dials one when every open
// connection is mid-conversation.
func (l *link) take() (*rpcConn, error) {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		c := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return c, nil
	}
	l.mu.Unlock()
	conn, err := l.dial()
	if err != nil {
		return nil, err
	}
	if !l.open.add(conn) {
		if err := conn.Close(); err != nil {
			_ = err // the link is closed; the conn is unwanted
		}
		return nil, net.ErrClosed
	}
	return newRPCConn(conn, nil), nil
}

// connSet tracks live connections — the ones a daemon accepted, and the
// ones each link dialed — so Close can interrupt their blocked reads;
// without it a daemon cannot shut down until every peer hangs up first.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// add registers a live connection, or reports that the set is already
// closed and the connection should be dropped.
func (s *connSet) add(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *connSet) remove(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// closeAll closes every tracked connection and refuses new ones.
func (s *connSet) closeAll() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		if err := c.Close(); err != nil {
			_ = err // remote already hung up
		}
	}
}

// serveListener accepts connections and serves each with its own
// goroutine, so a slow conversation on one never blocks another —
// the lockstep protocol relies on a daemon answering exchange requests
// while it is itself mid-exchange.
func serveListener(l net.Listener, counters *wireCounters, handle func(wire.Msg) wire.Msg, done *sync.WaitGroup, accepted *connSet) {
	defer done.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !accepted.add(conn) {
			if err := conn.Close(); err != nil {
				_ = err // daemon is shutting down; the conn is unwanted
			}
			return
		}
		done.Add(1)
		go serveConn(conn, counters, handle, done, accepted)
	}
}

// serveConn answers requests on one accepted connection until it closes
// or a protocol error desynchronizes the stream.
func serveConn(conn net.Conn, counters *wireCounters, handle func(wire.Msg) wire.Msg, done *sync.WaitGroup, accepted *connSet) {
	defer done.Done()
	defer accepted.remove(conn)
	defer func() {
		if err := conn.Close(); err != nil {
			_ = err // already closing; nothing to do with a second failure
		}
	}()
	cc := &countingConn{Conn: conn, counters: counters}
	r := wire.NewReader(cc)
	w := wire.NewWriter(cc)
	for {
		req, err := wire.ReadMsg(r)
		if err != nil {
			return
		}
		resp := handle(req)
		if resp == nil {
			return
		}
		if err := wire.WriteMsg(w, resp); err != nil {
			return
		}
		counters.msgs.Add(1)
	}
}
