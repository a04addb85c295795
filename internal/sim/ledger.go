package sim

// Ledger is a thread-confined traffic counter for the engine's parallel
// phases — the planning goroutines (both the lazy mode's per-node plans
// and the eager mode's per-(initiator, query) plans) and the sharded
// commit phase, where each shard committer owns one Ledger and counts the
// commit-time traffic of its own nodes. No shared counter is touched until
// the engine folds the cycle's ledgers into the network through
// Network.Commit; the fold is a sum of per-kind counters, so the network's
// counters do not depend on how messages were distributed across ledgers.
//
// A Ledger reads the network's liveness (stable within a cycle: Kill and
// SetOnline only run between cycles) but never writes to it, so any number
// of Ledgers can count concurrently against the same Network.
type Ledger struct {
	nw *Network
	t  Traffic
}

// NewLedger returns an empty ledger counting against this network's
// current liveness.
func (nw *Network) NewLedger() *Ledger { return &Ledger{nw: nw} }

// InitLedger (re)initializes a caller-owned ledger value in place: same
// semantics as NewLedger, without an allocation. The engine's plan slots
// and commit shards embed their ledgers and re-init them each phase.
//
//p3q:hotpath
func (nw *Network) InitLedger(l *Ledger) { *l = Ledger{nw: nw} }

// Send counts a message from one node to another: it returns true if the
// destination is online (the message is counted under its kind) and false
// otherwise (a probe-sized failed attempt is counted instead). Senders
// must be online; a send from an offline node panics, as it indicates a
// protocol bug.
func (l *Ledger) Send(from, to NodeID, k Kind, bytes int) bool {
	if !l.nw.online[from] {
		panic("sim: offline node attempted to send (ledger)")
	}
	if !l.nw.online[to] {
		l.t.Add(MsgProbe, ProbeBytes)
		return false
	}
	l.t.Add(k, bytes)
	return true
}

// Merge adds the other ledger's counters to this one. The other ledger is
// left untouched, so a plan's ledger can still be read after a shard
// committer has absorbed it.
func (l *Ledger) Merge(o *Ledger) { l.t.add(&o.t) }

// Total returns the per-kind traffic the ledger has counted so far, i.e.
// what Commit would add to the network's counters.
func (l *Ledger) Total() Traffic { return l.t }

// Commit adds the ledger's counters to the network's and empties the
// ledger.
func (nw *Network) Commit(l *Ledger) {
	nw.total.add(&l.t)
	l.t = Traffic{}
}
