// Package peer hosts the p3qd daemon: a process that holds a contiguous
// range of P3Q nodes and speaks the internal/wire protocol with the other
// daemons of a cluster.
//
// # Replication model
//
// Every daemon steps a full deterministic core.Engine replica — the
// simulator is the executable spec, and each daemon runs it. Identical
// dataset, configuration and seed make the replicas bit-identical, so a
// daemon always knows what every exchange of a cycle must contain; the
// captured cycle description (core.LazyCapture / core.EagerCapture) tells
// it which exchanges its hosted nodes initiate, with whom, carrying what.
// The daemons then really speak those exchanges over the wire for every
// cross-daemon pair: the initiator's daemon sends the real content, the
// responder answers from its own replica's capture — computed by the same
// core code paths — and the initiator verifies the response against its
// local capture. Any mismatch increments the divergence counter: the
// simulator-as-oracle contract, enforced per message.
//
// # Lockstep cycles
//
// The lead daemon (index 0) drives the cluster one round per cycle: a Step
// broadcast makes every daemon advance its replica one cycle (with
// capture) and run the cycle's wire conversations for the initiators it
// hosts, while the lead does the same. Daemons work concurrently, so a
// request can reach a daemon before its own step of the cycle; it waits
// for that step. Queries are issued between cycles through a QueryIssue
// broadcast, so every replica assigns the same query ID. The lead collects
// every ack before it starts the next cycle.
//
// # Queries
//
// Algorithm 4 runs once, in the replica: there is no querier-side state
// machine. The querier's daemon checks each partial result the wire
// delivers against its capture and charges a divergence for every owed
// delivery that never arrives, but the answer is the replica's QueryRun.
// Every replica issues every query, so any daemon answers a status request
// from its own replica, and the per-query rows of its stats are the
// replica's totals, identical on every daemon.
//
// # Connections
//
// A daemon reaches a peer one way (link, in rpc.go): a connection carries
// one conversation, and the link opens as many as it has conversations
// under way. A call blocks only on its own remote handler, so the mesh
// cannot deadlock however many queries are in flight, and every call has
// a deadline. The data/ctrl/gateway/served counters label why bytes were
// sent, not which connection carried them.
//
// # Scope
//
// The v1 daemon assumes the paper's static deployment: no churn, static
// profiles, no delivery delay (core.Config.Latency == nil). Profile
// digests travel as (owner, version) references — the dataset is the
// shared blob store, as in internal/checkpoint — while the traffic
// accounting still charges the full §3.3 sizes the references stand for.
package peer

import (
	"fmt"
	"net"
	"sync"
)

// Transport abstracts how daemons reach each other, so the same daemon
// code runs over real TCP sockets (cmd/p3qd) and over an in-memory
// fabric (the smoke and cross-check tests).
type Transport interface {
	Listen(addr string) (net.Listener, error)
	Dial(addr string) (net.Conn, error)
}

// TCP is the production transport: plain TCP sockets.
type TCP struct{}

// Listen implements Transport.
func (TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Transport.
func (TCP) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Fabric is an in-memory transport: listeners register under their
// address and dials produce net.Pipe pairs. It gives the tests a real
// byte stream — framing, truncation and interleaving behave exactly as
// on a socket — without ports or timing dependence.
type Fabric struct {
	mu        sync.Mutex
	listeners map[string]*fabricListener
}

// NewFabric returns an empty in-memory transport.
func NewFabric() *Fabric {
	return &Fabric{listeners: make(map[string]*fabricListener)}
}

// Listen implements Transport.
func (f *Fabric) Listen(addr string) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, taken := f.listeners[addr]; taken {
		return nil, fmt.Errorf("peer: fabric address %q already bound", addr)
	}
	l := &fabricListener{fabric: f, addr: addr, accept: make(chan net.Conn)}
	f.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (f *Fabric) Dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	l := f.listeners[addr]
	f.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("peer: fabric address %q not listening", addr)
	}
	client, server := net.Pipe()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed():
		return nil, fmt.Errorf("peer: fabric address %q closed", addr)
	}
}

type fabricListener struct {
	fabric *Fabric
	addr   string
	accept chan net.Conn

	closeOnce sync.Once
	done      chan struct{}
	doneInit  sync.Once
}

func (l *fabricListener) closed() chan struct{} {
	l.doneInit.Do(func() { l.done = make(chan struct{}) })
	return l.done
}

// Accept implements net.Listener.
func (l *fabricListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed():
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *fabricListener) Close() error {
	l.closeOnce.Do(func() {
		l.fabric.mu.Lock()
		delete(l.fabric.listeners, l.addr)
		l.fabric.mu.Unlock()
		close(l.closed())
	})
	return nil
}

// Addr implements net.Listener.
func (l *fabricListener) Addr() net.Addr { return fabricAddr(l.addr) }

type fabricAddr string

func (a fabricAddr) Network() string { return "fabric" }
func (a fabricAddr) String() string  { return string(a) }
