package sim

// Ledger is a thread-confined message recorder for the engine's parallel
// phases — the planning goroutines (both the lazy mode's per-node plans
// and the eager mode's per-(initiator, query) plans) and the sharded
// commit phase, where each shard committer owns one Ledger and records the
// commit-time traffic of its own nodes. No shared counter is touched until
// the engine merges the cycle's ledgers in canonical shard order through
// Network.Commit, which folds the recorded traffic into the network's
// per-kind and per-node counters; the fold is a sum per record, so the
// canonical merge order makes the counters independent of how records were
// distributed across ledgers.
//
// A Ledger reads the network's liveness (stable within a cycle: Kill and
// SetOnline only run between cycles) but never writes to it, so any number
// of Ledgers can record concurrently against the same Network.
type Ledger struct {
	nw      *Network
	records []Record
}

// Record is one message captured by a Ledger, already resolved against the
// liveness snapshot: a send to a departed node is stored as the probe it
// degrades into, exactly as Network.Send would have accounted it.
type Record struct {
	From, To NodeID
	Kind     Kind
	Bytes    int
}

// NewLedger returns an empty ledger recording against this network's
// current liveness.
func (nw *Network) NewLedger() *Ledger { return &Ledger{nw: nw} }

// InitLedger (re)initializes a caller-owned ledger value in place: same
// semantics as NewLedger, but the record buffer is reused. The engine's
// commit shards embed their ledgers and re-init them each phase instead of
// allocating fresh ones.
//
//p3q:hotpath
func (nw *Network) InitLedger(l *Ledger) { nw.InitLedgerOn(l, l.records) }

// InitLedgerOn is InitLedger recording into buf's backing array, from its
// start: a caller that pools record memory itself hands the ledger a run
// of it, and reads the records back with Records.
//
//p3q:hotpath
func (nw *Network) InitLedgerOn(l *Ledger, buf []Record) {
	l.nw = nw
	l.records = buf[:0]
}

// Send records a message with the same semantics as Network.Send: it
// returns true if the destination is online (the message is recorded under
// its kind) and false otherwise (a probe-sized failed attempt is recorded
// instead). Senders must be online; recording a send from an offline node
// panics, as it indicates a protocol bug.
func (l *Ledger) Send(from, to NodeID, k Kind, bytes int) bool {
	if !l.nw.online[from] {
		panic("sim: offline node attempted to send (ledger)")
	}
	if !l.nw.online[to] {
		l.records = append(l.records, Record{From: from, To: to, Kind: MsgProbe, Bytes: ProbeBytes})
		return false
	}
	l.records = append(l.records, Record{From: from, To: to, Kind: k, Bytes: bytes})
	return true
}

// Len returns the number of recorded messages.
func (l *Ledger) Len() int { return len(l.records) }

// Records returns the recorded messages in send order. The slice aliases
// the ledger; do not modify.
func (l *Ledger) Records() []Record { return l.records }

// Merge appends the other ledger's records to this one. The other ledger
// is left untouched, so a plan's ledger can still be totalled after a
// shard committer has absorbed it.
func (l *Ledger) Merge(o *Ledger) {
	l.records = append(l.records, o.records...)
}

// BytesSince returns the total bytes of the records appended after the
// given mark (a prior Len result). The sharded commit phase brackets an
// integration with Len/BytesSince to attribute the commit-resolved
// step-2/step-3 traffic to the gossip pair that caused it.
func (l *Ledger) BytesSince(mark int) uint64 {
	var b uint64
	for _, r := range l.records[mark:] {
		b += uint64(r.Bytes)
	}
	return b
}

// Total returns the per-kind traffic the ledger has recorded so far, i.e.
// what Commit would add to the network's counters.
func (l *Ledger) Total() Traffic {
	var t Traffic
	for _, r := range l.records {
		t.Add(r.Kind, r.Bytes)
	}
	return t
}

// Commit merges every message recorded in the ledger into the network's
// counters and empties the ledger. Committing the ledgers of a cycle in a
// fixed order yields counters identical to having called Network.Send
// inline, which is what keeps parallel planning byte-for-byte deterministic.
func (nw *Network) Commit(l *Ledger) {
	for _, r := range l.records {
		nw.total.Add(r.Kind, r.Bytes)
		nw.perNode[r.From].Add(r.Kind, r.Bytes)
	}
	l.records = l.records[:0]
}
