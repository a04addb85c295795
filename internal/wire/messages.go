package wire

import (
	"p3q/internal/tagging"
	"p3q/internal/topk"
)

// Type identifies a wire message.
type Type uint16

// Message types. The values are part of the wire format: never reorder or
// reuse them — retire a message by leaving a gap and bump Version when the
// semantics change.
const (
	// Cluster control plane.
	TypeHello       Type = 1 // daemon -> daemon: identity + compatibility proof
	TypeHelloAck    Type = 2
	TypeStep        Type = 3 // lead -> member: step the replica one cycle
	TypeStepAck     Type = 4
	TypeExchangeGo  Type = 5 // lead -> member: run the cycle's wire exchanges
	TypeExchangeAck Type = 6
	TypeShutdown    Type = 7
	TypeShutdownAck Type = 8

	// Protocol plane: lazy digest exchange (§2.2.1).
	TypeViewExchangeReq  Type = 16
	TypeViewExchangeResp Type = 17
	TypeTopExchangeReq   Type = 18
	TypeTopExchangeResp  Type = 19
	TypeDirectFetchReq   Type = 20
	TypeDirectFetchResp  Type = 21

	// Protocol plane: eager query gossip (§2.2.2).
	TypeEagerForwardReq  Type = 24
	TypeEagerForwardResp Type = 25
	TypePartialResult    Type = 26
	TypePartialResultAck Type = 27

	// Query plane.
	TypeQuerySubmit     Type = 32 // gateway -> any daemon
	TypeQuerySubmitAck  Type = 33
	TypeQueryIssue      Type = 34 // lead -> member: issue on every replica
	TypeQueryIssueAck   Type = 35
	TypeQueryStatus     Type = 36
	TypeQueryStatusResp Type = 37
	TypeStats           Type = 38
	TypeStatsResp       Type = 39
)

// Msg is one wire message. Encoding and decoding are deliberately
// unexported: every message crosses the stream through WriteMsg/ReadMsg
// so the frame envelope is never bypassed.
type Msg interface {
	WireType() Type
	encode(w *Writer)
	decode(r *Reader)
}

func encodeRefs(w *Writer, refs []tagging.DigestRef) {
	w.Count(len(refs))
	for _, d := range refs {
		w.U32(uint32(d.Owner))
		w.U32(d.Version)
		w.U32(d.Bytes)
	}
}

func decodeRefs(r *Reader) []tagging.DigestRef {
	n := r.Count(MaxListLen)
	if n == 0 {
		return nil
	}
	out := make([]tagging.DigestRef, 0, CapHint(n))
	for i := 0; i < n; i++ {
		out = append(out, tagging.DigestRef{
			Owner:   tagging.UserID(r.U32()),
			Version: r.U32(),
			Bytes:   r.U32(),
		})
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// encodeIDs and decodeIDs carry the lists of 4-byte interned identifiers
// (users of a remaining list, tags of a query).
func encodeIDs[T ~uint32](w *Writer, ids []T) {
	w.Count(len(ids))
	for _, id := range ids {
		w.U32(uint32(id))
	}
}

func decodeIDs[T ~uint32](r *Reader) []T {
	n := r.Count(MaxListLen)
	if n == 0 {
		return nil
	}
	out := make([]T, 0, CapHint(n))
	for i := 0; i < n; i++ {
		out = append(out, T(r.U32()))
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

func encodeEntries(w *Writer, entries []topk.Entry) {
	w.Count(len(entries))
	for _, e := range entries {
		w.U32(uint32(e.Item))
		w.I64(int64(e.Score))
	}
}

func decodeEntries(r *Reader) []topk.Entry {
	n := r.Count(MaxListLen)
	if n == 0 {
		return nil
	}
	out := make([]topk.Entry, 0, CapHint(n))
	for i := 0; i < n; i++ {
		out = append(out, topk.Entry{
			Item:  tagging.ItemID(r.U32()),
			Score: int(r.I64()),
		})
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// Hello opens a daemon-to-daemon connection: the dialer identifies itself
// and proves it runs the same deterministic universe. Replicas are only
// interchangeable when dataset, configuration and seed all match, so the
// receiver rejects on any sum mismatch rather than silently diverging.
type Hello struct {
	Index      uint32 // dialer's daemon index (0 is the lead)
	Lo, Hi     uint32 // hosted node range [Lo, Hi)
	Users      uint32 // total users in the universe
	Seed       uint64
	ConfigSum  uint64 // FNV-1a over the engine configuration
	DatasetSum uint64 // FNV-1a over the generator parameters
}

func (*Hello) WireType() Type { return TypeHello }

func (m *Hello) encode(w *Writer) {
	w.U32(m.Index)
	w.U32(m.Lo)
	w.U32(m.Hi)
	w.U32(m.Users)
	w.U64(m.Seed)
	w.U64(m.ConfigSum)
	w.U64(m.DatasetSum)
}

func (m *Hello) decode(r *Reader) {
	m.Index = r.U32()
	m.Lo = r.U32()
	m.Hi = r.U32()
	m.Users = r.U32()
	m.Seed = r.U64()
	m.ConfigSum = r.U64()
	m.DatasetSum = r.U64()
}

// HelloAck accepts or rejects a Hello.
type HelloAck struct {
	OK     bool
	Index  uint32 // responder's daemon index
	Reason string // set when !OK
}

func (*HelloAck) WireType() Type { return TypeHelloAck }

func (m *HelloAck) encode(w *Writer) {
	w.Bool(m.OK)
	w.U32(m.Index)
	w.String(m.Reason)
}

func (m *HelloAck) decode(r *Reader) {
	m.OK = r.Bool()
	m.Index = r.U32()
	m.Reason = r.String()
}

// Cycle kinds carried by Step.
const (
	StepLazy  uint8 = 0
	StepEager uint8 = 1
)

// Step instructs a member to step its replica one cycle (with capture)
// and ack. The lead drives the cluster in lockstep: phase one steps every
// replica, phase two (ExchangeGo) runs the wire exchanges the captures
// describe.
type Step struct {
	Kind uint8 // StepLazy or StepEager
	Seq  uint64
}

func (*Step) WireType() Type { return TypeStep }

func (m *Step) encode(w *Writer) {
	w.U8(m.Kind)
	w.U64(m.Seq)
}

func (m *Step) decode(r *Reader) {
	m.Kind = r.U8()
	if m.Kind > StepEager {
		r.Fail("invalid step kind")
	}
	m.Seq = r.U64()
}

// StepAck confirms the replica stepped cycle Seq.
type StepAck struct {
	Seq uint64
}

func (*StepAck) WireType() Type { return TypeStepAck }
func (m *StepAck) encode(w *Writer) {
	w.U64(m.Seq)
}
func (m *StepAck) decode(r *Reader) {
	m.Seq = r.U64()
}

// ExchangeGo instructs a member to run cycle Seq's wire exchanges for the
// initiators it hosts.
type ExchangeGo struct {
	Seq uint64
}

func (*ExchangeGo) WireType() Type { return TypeExchangeGo }
func (m *ExchangeGo) encode(w *Writer) {
	w.U64(m.Seq)
}
func (m *ExchangeGo) decode(r *Reader) {
	m.Seq = r.U64()
}

// ExchangeAck confirms the member finished cycle Seq's exchanges and
// reports its cumulative divergence count — peer responses that did not
// match the local replica's own computation.
type ExchangeAck struct {
	Seq        uint64
	Divergence uint64
}

func (*ExchangeAck) WireType() Type { return TypeExchangeAck }

func (m *ExchangeAck) encode(w *Writer) {
	w.U64(m.Seq)
	w.U64(m.Divergence)
}

func (m *ExchangeAck) decode(r *Reader) {
	m.Seq = r.U64()
	m.Divergence = r.U64()
}

// Shutdown asks a daemon to stop cleanly.
type Shutdown struct{}

func (*Shutdown) WireType() Type     { return TypeShutdown }
func (m *Shutdown) encode(w *Writer) {}
func (m *Shutdown) decode(r *Reader) {}

// ShutdownAck confirms the daemon is stopping.
type ShutdownAck struct{}

func (*ShutdownAck) WireType() Type     { return TypeShutdownAck }
func (m *ShutdownAck) encode(w *Writer) {}
func (m *ShutdownAck) decode(r *Reader) {}

// ViewExchangeReq carries one bottom-layer peer-sampling exchange
// (§2.2.1): the initiator's descriptor buffer travels to the daemon
// hosting the partner, which answers with the partner's buffer.
type ViewExchangeReq struct {
	Seq       uint64
	Initiator tagging.UserID
	Partner   tagging.UserID
	Buf       []tagging.DigestRef
}

func (*ViewExchangeReq) WireType() Type { return TypeViewExchangeReq }

func (m *ViewExchangeReq) encode(w *Writer) {
	w.U64(m.Seq)
	w.U32(uint32(m.Initiator))
	w.U32(uint32(m.Partner))
	encodeRefs(w, m.Buf)
}

func (m *ViewExchangeReq) decode(r *Reader) {
	m.Seq = r.U64()
	m.Initiator = tagging.UserID(r.U32())
	m.Partner = tagging.UserID(r.U32())
	m.Buf = decodeRefs(r)
}

// ViewExchangeResp returns the partner's descriptor buffer.
type ViewExchangeResp struct {
	Buf []tagging.DigestRef
}

func (*ViewExchangeResp) WireType() Type { return TypeViewExchangeResp }
func (m *ViewExchangeResp) encode(w *Writer) {
	encodeRefs(w, m.Buf)
}
func (m *ViewExchangeResp) decode(r *Reader) {
	m.Buf = decodeRefs(r)
}

// TopExchangeReq carries step 1 of one top-layer exchange (§2.2.1): the
// initiator's offer batch travels to the daemon hosting the partner,
// which answers with the partner's batch; steps 2-3 resolve locally
// against each side's committed replica.
type TopExchangeReq struct {
	Seq       uint64
	Initiator tagging.UserID
	Partner   tagging.UserID
	Offers    []tagging.DigestRef
}

func (*TopExchangeReq) WireType() Type { return TypeTopExchangeReq }

func (m *TopExchangeReq) encode(w *Writer) {
	w.U64(m.Seq)
	w.U32(uint32(m.Initiator))
	w.U32(uint32(m.Partner))
	encodeRefs(w, m.Offers)
}

func (m *TopExchangeReq) decode(r *Reader) {
	m.Seq = r.U64()
	m.Initiator = tagging.UserID(r.U32())
	m.Partner = tagging.UserID(r.U32())
	m.Offers = decodeRefs(r)
}

// TopExchangeResp returns the partner's offer batch.
type TopExchangeResp struct {
	Offers []tagging.DigestRef
}

func (*TopExchangeResp) WireType() Type { return TypeTopExchangeResp }
func (m *TopExchangeResp) encode(w *Writer) {
	encodeRefs(w, m.Offers)
}
func (m *TopExchangeResp) decode(r *Reader) {
	m.Offers = decodeRefs(r)
}

// DirectFetchReq asks the daemon hosting Owner for Owner's fresh profile
// offer (the random-view direct contact of §2.2.1).
type DirectFetchReq struct {
	Seq       uint64
	Requester tagging.UserID
	Owner     tagging.UserID
}

func (*DirectFetchReq) WireType() Type { return TypeDirectFetchReq }

func (m *DirectFetchReq) encode(w *Writer) {
	w.U64(m.Seq)
	w.U32(uint32(m.Requester))
	w.U32(uint32(m.Owner))
}

func (m *DirectFetchReq) decode(r *Reader) {
	m.Seq = r.U64()
	m.Requester = tagging.UserID(r.U32())
	m.Owner = tagging.UserID(r.U32())
}

// DirectFetchResp returns the owner's offer.
type DirectFetchResp struct {
	Offer tagging.DigestRef
}

func (*DirectFetchResp) WireType() Type { return TypeDirectFetchResp }

func (m *DirectFetchResp) encode(w *Writer) {
	w.U32(uint32(m.Offer.Owner))
	w.U32(m.Offer.Version)
	w.U32(m.Offer.Bytes)
}

func (m *DirectFetchResp) decode(r *Reader) {
	m.Offer.Owner = tagging.UserID(r.U32())
	m.Offer.Version = r.U32()
	m.Offer.Bytes = r.U32()
}

// EagerForwardReq carries one eager gossip (Algorithm 3) to the daemon
// hosting the destination: the query, the forwarded remaining list, and
// the piggybacked maintenance offers of the initiator.
type EagerForwardReq struct {
	Seq       uint64
	Qid       uint64
	Initiator tagging.UserID
	Dest      tagging.UserID
	Querier   tagging.UserID
	Tags      []tagging.TagID
	Branch    []tagging.UserID
	Offers    []tagging.DigestRef // piggybacked maintenance, initiator -> destination
}

func (*EagerForwardReq) WireType() Type { return TypeEagerForwardReq }

func (m *EagerForwardReq) encode(w *Writer) {
	w.U64(m.Seq)
	w.U64(m.Qid)
	w.U32(uint32(m.Initiator))
	w.U32(uint32(m.Dest))
	w.U32(uint32(m.Querier))
	encodeIDs(w, m.Tags)
	encodeIDs(w, m.Branch)
	encodeRefs(w, m.Offers)
}

func (m *EagerForwardReq) decode(r *Reader) {
	m.Seq = r.U64()
	m.Qid = r.U64()
	m.Initiator = tagging.UserID(r.U32())
	m.Dest = tagging.UserID(r.U32())
	m.Querier = tagging.UserID(r.U32())
	m.Tags = decodeIDs[tagging.TagID](r)
	m.Branch = decodeIDs[tagging.UserID](r)
	m.Offers = decodeRefs(r)
}

// EagerForwardResp answers an eager gossip: the α-split portion of the
// unresolved remaining list sent back to the initiator, and the
// destination's piggybacked maintenance offers.
type EagerForwardResp struct {
	Returned []tagging.UserID
	Offers   []tagging.DigestRef // piggybacked maintenance, destination -> initiator
}

func (*EagerForwardResp) WireType() Type { return TypeEagerForwardResp }

func (m *EagerForwardResp) encode(w *Writer) {
	encodeIDs(w, m.Returned)
	encodeRefs(w, m.Offers)
}

func (m *EagerForwardResp) decode(r *Reader) {
	m.Returned = decodeIDs[tagging.UserID](r)
	m.Offers = decodeRefs(r)
}

// PartialResult delivers a destination's partial result list to the
// daemon hosting the querier (Algorithm 3 step 3).
type PartialResult struct {
	Seq         uint64
	Qid         uint64
	Initiator   tagging.UserID // the gossip initiator (with Qid: which gossip this resolves)
	From        tagging.UserID // the gossip destination that resolved the profiles
	Querier     tagging.UserID
	FoundOwners []tagging.UserID // profiles resolved from the destination's storage
	Entries     []topk.Entry
}

func (*PartialResult) WireType() Type { return TypePartialResult }

func (m *PartialResult) encode(w *Writer) {
	w.U64(m.Seq)
	w.U64(m.Qid)
	w.U32(uint32(m.Initiator))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Querier))
	encodeIDs(w, m.FoundOwners)
	encodeEntries(w, m.Entries)
}

func (m *PartialResult) decode(r *Reader) {
	m.Seq = r.U64()
	m.Qid = r.U64()
	m.Initiator = tagging.UserID(r.U32())
	m.From = tagging.UserID(r.U32())
	m.Querier = tagging.UserID(r.U32())
	m.FoundOwners = decodeIDs[tagging.UserID](r)
	m.Entries = decodeEntries(r)
}

// PartialResultAck confirms delivery.
type PartialResultAck struct{}

func (*PartialResultAck) WireType() Type     { return TypePartialResultAck }
func (m *PartialResultAck) encode(w *Writer) {}
func (m *PartialResultAck) decode(r *Reader) {}

// QuerySubmit asks a daemon to run a query on behalf of Querier. Any
// daemon accepts it; a member forwards it to the lead, which issues it on
// every replica between cycles.
type QuerySubmit struct {
	Querier tagging.UserID
	Tags    []tagging.TagID
}

func (*QuerySubmit) WireType() Type { return TypeQuerySubmit }

func (m *QuerySubmit) encode(w *Writer) {
	w.U32(uint32(m.Querier))
	encodeIDs(w, m.Tags)
}

func (m *QuerySubmit) decode(r *Reader) {
	m.Querier = tagging.UserID(r.U32())
	m.Tags = decodeIDs[tagging.TagID](r)
}

// QuerySubmitAck returns the query ID the cluster assigned, identical on
// every replica by determinism.
type QuerySubmitAck struct {
	OK     bool
	Qid    uint64
	Reason string // set when !OK
}

func (*QuerySubmitAck) WireType() Type { return TypeQuerySubmitAck }

func (m *QuerySubmitAck) encode(w *Writer) {
	w.Bool(m.OK)
	w.U64(m.Qid)
	w.String(m.Reason)
}

func (m *QuerySubmitAck) decode(r *Reader) {
	m.OK = r.Bool()
	m.Qid = r.U64()
	m.Reason = r.String()
}

// QueryIssue is the lead's broadcast ordering every member to issue the
// query on its replica; replicas assign identical IDs.
type QueryIssue struct {
	Querier tagging.UserID
	Tags    []tagging.TagID
}

func (*QueryIssue) WireType() Type { return TypeQueryIssue }

func (m *QueryIssue) encode(w *Writer) {
	w.U32(uint32(m.Querier))
	encodeIDs(w, m.Tags)
}

func (m *QueryIssue) decode(r *Reader) {
	m.Querier = tagging.UserID(r.U32())
	m.Tags = decodeIDs[tagging.TagID](r)
}

// QueryIssueAck confirms the member issued the query, echoing the ID its
// replica assigned so the lead can assert agreement.
type QueryIssueAck struct {
	OK  bool
	Qid uint64
}

func (*QueryIssueAck) WireType() Type { return TypeQueryIssueAck }

func (m *QueryIssueAck) encode(w *Writer) {
	w.Bool(m.OK)
	w.U64(m.Qid)
}

func (m *QueryIssueAck) decode(r *Reader) {
	m.OK = r.Bool()
	m.Qid = r.U64()
}

// QueryStatus asks a daemon for the state of a query.
type QueryStatus struct {
	Qid uint64
}

func (*QueryStatus) WireType() Type { return TypeQueryStatus }
func (m *QueryStatus) encode(w *Writer) {
	w.U64(m.Qid)
}
func (m *QueryStatus) decode(r *Reader) {
	m.Qid = r.U64()
}

// QueryStatusResp reports a query's progress as the answering daemon sees
// it: recall counters, the wire-tallied traffic split, and — once done —
// the result list its own NRA accumulated from wire-received partial
// results.
type QueryStatusResp struct {
	Known  bool
	Done   bool
	Cycles uint32 // eager cycles since issue
	Used   uint32 // profiles used so far
	Needed uint32 // personal network size + 1

	// Wire-tallied traffic attributed to this query, same categories as
	// core.QueryBytes.
	Forwarded      uint64
	Returned       uint64
	PartialResults uint64
	Maintenance    uint64

	Results []topk.Entry // populated once Done
}

func (*QueryStatusResp) WireType() Type { return TypeQueryStatusResp }

func (m *QueryStatusResp) encode(w *Writer) {
	w.Bool(m.Known)
	w.Bool(m.Done)
	w.U32(m.Cycles)
	w.U32(m.Used)
	w.U32(m.Needed)
	w.U64(m.Forwarded)
	w.U64(m.Returned)
	w.U64(m.PartialResults)
	w.U64(m.Maintenance)
	encodeEntries(w, m.Results)
}

func (m *QueryStatusResp) decode(r *Reader) {
	m.Known = r.Bool()
	m.Done = r.Bool()
	m.Cycles = r.U32()
	m.Used = r.U32()
	m.Needed = r.U32()
	m.Forwarded = r.U64()
	m.Returned = r.U64()
	m.PartialResults = r.U64()
	m.Maintenance = r.U64()
	m.Results = decodeEntries(r)
}

// Stats asks a daemon for its cluster-level counters.
type Stats struct{}

func (*Stats) WireType() Type     { return TypeStats }
func (m *Stats) encode(w *Writer) {}
func (m *Stats) decode(r *Reader) {}

// QueryStat is one query's row in a StatsResp.
type QueryStat struct {
	Qid  uint64
	Done bool

	Forwarded      uint64
	Returned       uint64
	PartialResults uint64
	Maintenance    uint64
}

// PlaneStat is one connection plane's raw wire tally.
type PlaneStat struct {
	Msgs  uint64
	Bytes uint64
}

// StatsResp reports a daemon's counters: cycles stepped, divergence
// detections (peer responses contradicting the local replica), raw wire
// volume — total and split by connection plane — the replica's
// event-machine depths, cumulative hostclock phase windows, and the
// per-query traffic tallies this daemon attributed from the exchanges
// its hosted initiators ran.
type StatsResp struct {
	Index       uint32
	LazyCycles  uint64
	EagerCycles uint64
	Divergence  uint64
	WireMsgs    uint64 // total across planes, both directions
	WireBytes   uint64

	// Replica event-machine depths at answer time.
	FrozenEvents  uint32 // deliveries frozen at offline nodes
	PendingEvents uint32 // in-flight deliveries in the event queue

	// Cumulative hostclock phase windows (observability only; these never
	// feed back into replica state).
	PlanNanos    uint64
	CommitNanos  uint64
	SkewMaxNanos uint64 // worst per-cycle commit skew across shards

	// Raw wire volume by connection plane. Data/Ctrl/Gateway count this
	// daemon's dialed links; Served counts its accepted side of all planes.
	Data    PlaneStat
	Ctrl    PlaneStat
	Gateway PlaneStat
	Served  PlaneStat

	Queries []QueryStat
}

func (*StatsResp) WireType() Type { return TypeStatsResp }

func encodePlane(w *Writer, p PlaneStat) {
	w.U64(p.Msgs)
	w.U64(p.Bytes)
}

func decodePlane(r *Reader) PlaneStat {
	return PlaneStat{Msgs: r.U64(), Bytes: r.U64()}
}

func (m *StatsResp) encode(w *Writer) {
	w.U32(m.Index)
	w.U64(m.LazyCycles)
	w.U64(m.EagerCycles)
	w.U64(m.Divergence)
	w.U64(m.WireMsgs)
	w.U64(m.WireBytes)
	w.U32(m.FrozenEvents)
	w.U32(m.PendingEvents)
	w.U64(m.PlanNanos)
	w.U64(m.CommitNanos)
	w.U64(m.SkewMaxNanos)
	encodePlane(w, m.Data)
	encodePlane(w, m.Ctrl)
	encodePlane(w, m.Gateway)
	encodePlane(w, m.Served)
	w.Count(len(m.Queries))
	for _, q := range m.Queries {
		w.U64(q.Qid)
		w.Bool(q.Done)
		w.U64(q.Forwarded)
		w.U64(q.Returned)
		w.U64(q.PartialResults)
		w.U64(q.Maintenance)
	}
}

func (m *StatsResp) decode(r *Reader) {
	m.Index = r.U32()
	m.LazyCycles = r.U64()
	m.EagerCycles = r.U64()
	m.Divergence = r.U64()
	m.WireMsgs = r.U64()
	m.WireBytes = r.U64()
	m.FrozenEvents = r.U32()
	m.PendingEvents = r.U32()
	m.PlanNanos = r.U64()
	m.CommitNanos = r.U64()
	m.SkewMaxNanos = r.U64()
	m.Data = decodePlane(r)
	m.Ctrl = decodePlane(r)
	m.Gateway = decodePlane(r)
	m.Served = decodePlane(r)
	n := r.Count(MaxQueryEntries)
	if n == 0 {
		return
	}
	m.Queries = make([]QueryStat, 0, CapHint(n))
	for i := 0; i < n; i++ {
		var q QueryStat
		q.Qid = r.U64()
		q.Done = r.Bool()
		q.Forwarded = r.U64()
		q.Returned = r.U64()
		q.PartialResults = r.U64()
		q.Maintenance = r.U64()
		if r.Err() != nil {
			m.Queries = nil
			return
		}
		m.Queries = append(m.Queries, q)
	}
}

// newMsg returns a zero message of the given type, or false for an
// unknown type.
func newMsg(t Type) (Msg, bool) {
	switch t {
	case TypeHello:
		return &Hello{}, true
	case TypeHelloAck:
		return &HelloAck{}, true
	case TypeStep:
		return &Step{}, true
	case TypeStepAck:
		return &StepAck{}, true
	case TypeExchangeGo:
		return &ExchangeGo{}, true
	case TypeExchangeAck:
		return &ExchangeAck{}, true
	case TypeShutdown:
		return &Shutdown{}, true
	case TypeShutdownAck:
		return &ShutdownAck{}, true
	case TypeViewExchangeReq:
		return &ViewExchangeReq{}, true
	case TypeViewExchangeResp:
		return &ViewExchangeResp{}, true
	case TypeTopExchangeReq:
		return &TopExchangeReq{}, true
	case TypeTopExchangeResp:
		return &TopExchangeResp{}, true
	case TypeDirectFetchReq:
		return &DirectFetchReq{}, true
	case TypeDirectFetchResp:
		return &DirectFetchResp{}, true
	case TypeEagerForwardReq:
		return &EagerForwardReq{}, true
	case TypeEagerForwardResp:
		return &EagerForwardResp{}, true
	case TypePartialResult:
		return &PartialResult{}, true
	case TypePartialResultAck:
		return &PartialResultAck{}, true
	case TypeQuerySubmit:
		return &QuerySubmit{}, true
	case TypeQuerySubmitAck:
		return &QuerySubmitAck{}, true
	case TypeQueryIssue:
		return &QueryIssue{}, true
	case TypeQueryIssueAck:
		return &QueryIssueAck{}, true
	case TypeQueryStatus:
		return &QueryStatus{}, true
	case TypeQueryStatusResp:
		return &QueryStatusResp{}, true
	case TypeStats:
		return &Stats{}, true
	case TypeStatsResp:
		return &StatsResp{}, true
	default:
		return nil, false
	}
}
