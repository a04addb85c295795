package wire

import (
	"p3q/internal/binio"
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
	TypeStep        Type = 3 // lead -> member: step the replica one cycle and run its exchanges
	TypeStepAck     Type = 4
	TypeShutdown    Type = 7 // 5 and 6 retired with protocol version 3
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

// Msg is one wire message. Its layout is described once, by walk, which
// WriteMsg and ReadMsg run in their own direction; walk is deliberately
// unexported: every message crosses the stream through WriteMsg/ReadMsg so
// the frame envelope is never bypassed.
type Msg interface {
	WireType() Type
	walk(c *binio.Codec)
}

func walkRef(c *binio.Codec, d *tagging.DigestRef) {
	binio.ID(c, &d.Owner)
	c.U32(&d.Version)
}

func walkRefs(c *binio.Codec, refs *[]tagging.DigestRef) {
	binio.List(c, refs, MaxListLen, listCapHint, walkRef)
}

// walkIDs carries the lists of 4-byte interned identifiers (users of a
// remaining list, tags of a query).
func walkIDs[T ~uint32](c *binio.Codec, ids *[]T) {
	binio.List(c, ids, MaxListLen, listCapHint, binio.ID[T])
}

func walkEntry(c *binio.Codec, e *topk.Entry) {
	binio.ID(c, &e.Item)
	c.Int64(&e.Score)
}

func walkEntries(c *binio.Codec, entries *[]topk.Entry) {
	binio.List(c, entries, MaxListLen, listCapHint, walkEntry)
}

// Hello opens a daemon-to-daemon connection: the dialer identifies itself
// and proves it runs the same deterministic universe. Replicas are only
// interchangeable when protocol parameters and profiles all match, so the
// receiver rejects on any sum mismatch rather than silently diverging.
type Hello struct {
	Index      uint32 // dialer's daemon index (0 is the lead)
	Lo, Hi     uint32 // hosted node range [Lo, Hi)
	Users      uint32 // total users in the universe
	Seed       uint64
	ConfigSum  uint64 // FNV-1a over the replica's checkpoint params block
	DatasetSum uint64 // FNV-1a over the replica's checkpoint profile section
}

func (*Hello) WireType() Type { return TypeHello }

func (m *Hello) walk(c *binio.Codec) {
	c.U32(&m.Index)
	c.U32(&m.Lo)
	c.U32(&m.Hi)
	c.U32(&m.Users)
	c.U64(&m.Seed)
	c.U64(&m.ConfigSum)
	c.U64(&m.DatasetSum)
}

// HelloAck accepts or rejects a Hello.
type HelloAck struct {
	OK     bool
	Index  uint32 // responder's daemon index
	Reason string // set when !OK
}

func (*HelloAck) WireType() Type { return TypeHelloAck }

func (m *HelloAck) walk(c *binio.Codec) {
	c.Bool(&m.OK)
	c.U32(&m.Index)
	c.String(&m.Reason, MaxStringLen)
}

// Cycle kinds carried by Step.
const (
	StepLazy  uint8 = 0
	StepEager uint8 = 1
)

// Step instructs a member to step its replica one cycle (with capture),
// run the wire exchanges the capture describes for the initiators it
// hosts, and ack. The lead drives the cluster in lockstep: one Step
// broadcast per cycle, and the next cycle starts after every ack.
type Step struct {
	Kind uint8 // StepLazy or StepEager
	Seq  uint64
}

func (*Step) WireType() Type { return TypeStep }

func (m *Step) walk(c *binio.Codec) {
	c.U8(&m.Kind)
	if m.Kind > StepEager { // refused by the sender as well as the receiver
		c.Fail("invalid step kind")
	}
	c.U64(&m.Seq)
}

// StepAck confirms the member stepped cycle Seq and finished its
// exchanges.
type StepAck struct {
	Seq uint64
}

func (*StepAck) WireType() Type { return TypeStepAck }
func (m *StepAck) walk(c *binio.Codec) {
	c.U64(&m.Seq)
}

// Shutdown asks a daemon to stop cleanly.
type Shutdown struct{}

func (*Shutdown) WireType() Type    { return TypeShutdown }
func (*Shutdown) walk(*binio.Codec) {}

// ShutdownAck confirms the daemon is stopping.
type ShutdownAck struct{}

func (*ShutdownAck) WireType() Type    { return TypeShutdownAck }
func (*ShutdownAck) walk(*binio.Codec) {}

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

func (m *ViewExchangeReq) walk(c *binio.Codec) {
	c.U64(&m.Seq)
	binio.ID(c, &m.Initiator)
	binio.ID(c, &m.Partner)
	walkRefs(c, &m.Buf)
}

// ViewExchangeResp returns the partner's descriptor buffer.
type ViewExchangeResp struct {
	Buf []tagging.DigestRef
}

func (*ViewExchangeResp) WireType() Type { return TypeViewExchangeResp }
func (m *ViewExchangeResp) walk(c *binio.Codec) {
	walkRefs(c, &m.Buf)
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

func (m *TopExchangeReq) walk(c *binio.Codec) {
	c.U64(&m.Seq)
	binio.ID(c, &m.Initiator)
	binio.ID(c, &m.Partner)
	walkRefs(c, &m.Offers)
}

// TopExchangeResp returns the partner's offer batch.
type TopExchangeResp struct {
	Offers []tagging.DigestRef
}

func (*TopExchangeResp) WireType() Type { return TypeTopExchangeResp }
func (m *TopExchangeResp) walk(c *binio.Codec) {
	walkRefs(c, &m.Offers)
}

// DirectFetchReq asks the daemon hosting Owner for Owner's fresh profile
// offer (the random-view direct contact of §2.2.1).
type DirectFetchReq struct {
	Seq       uint64
	Requester tagging.UserID
	Owner     tagging.UserID
}

func (*DirectFetchReq) WireType() Type { return TypeDirectFetchReq }

func (m *DirectFetchReq) walk(c *binio.Codec) {
	c.U64(&m.Seq)
	binio.ID(c, &m.Requester)
	binio.ID(c, &m.Owner)
}

// DirectFetchResp returns the owner's offer.
type DirectFetchResp struct {
	Offer tagging.DigestRef
}

func (*DirectFetchResp) WireType() Type { return TypeDirectFetchResp }

func (m *DirectFetchResp) walk(c *binio.Codec) {
	walkRef(c, &m.Offer)
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

func (m *EagerForwardReq) walk(c *binio.Codec) {
	c.U64(&m.Seq)
	c.U64(&m.Qid)
	binio.ID(c, &m.Initiator)
	binio.ID(c, &m.Dest)
	binio.ID(c, &m.Querier)
	walkIDs(c, &m.Tags)
	walkIDs(c, &m.Branch)
	walkRefs(c, &m.Offers)
}

// EagerForwardResp answers an eager gossip: the α-split portion of the
// unresolved remaining list sent back to the initiator, and the
// destination's piggybacked maintenance offers.
type EagerForwardResp struct {
	Returned []tagging.UserID
	Offers   []tagging.DigestRef // piggybacked maintenance, destination -> initiator
}

func (*EagerForwardResp) WireType() Type { return TypeEagerForwardResp }

func (m *EagerForwardResp) walk(c *binio.Codec) {
	walkIDs(c, &m.Returned)
	walkRefs(c, &m.Offers)
}

// PartialResult delivers a destination's partial result list to the
// daemon hosting the querier (Algorithm 3 step 3); that daemon reads the
// querier off the query.
type PartialResult struct {
	Seq         uint64
	Qid         uint64
	Initiator   tagging.UserID   // the gossip initiator (with Qid: which gossip this resolves)
	From        tagging.UserID   // the gossip destination that resolved the profiles
	FoundOwners []tagging.UserID // profiles resolved from the destination's storage
	Entries     []topk.Entry
}

func (*PartialResult) WireType() Type { return TypePartialResult }

func (m *PartialResult) walk(c *binio.Codec) {
	c.U64(&m.Seq)
	c.U64(&m.Qid)
	binio.ID(c, &m.Initiator)
	binio.ID(c, &m.From)
	walkIDs(c, &m.FoundOwners)
	walkEntries(c, &m.Entries)
}

// PartialResultAck confirms delivery.
type PartialResultAck struct{}

func (*PartialResultAck) WireType() Type    { return TypePartialResultAck }
func (*PartialResultAck) walk(*binio.Codec) {}

// QuerySubmit asks a daemon to run a query on behalf of Querier. Any
// daemon accepts it; a member forwards it to the lead, which issues it on
// every replica between cycles.
type QuerySubmit struct {
	Querier tagging.UserID
	Tags    []tagging.TagID
}

func (*QuerySubmit) WireType() Type { return TypeQuerySubmit }

func (m *QuerySubmit) walk(c *binio.Codec) {
	binio.ID(c, &m.Querier)
	walkIDs(c, &m.Tags)
}

// QuerySubmitAck returns the query ID the cluster assigned, identical on
// every replica by determinism.
type QuerySubmitAck struct {
	OK     bool
	Qid    uint64
	Reason string // set when !OK
}

func (*QuerySubmitAck) WireType() Type { return TypeQuerySubmitAck }

func (m *QuerySubmitAck) walk(c *binio.Codec) {
	c.Bool(&m.OK)
	c.U64(&m.Qid)
	c.String(&m.Reason, MaxStringLen)
}

// QueryIssue is the lead's broadcast ordering every member to issue the
// query on its replica; replicas assign identical IDs.
type QueryIssue struct {
	Querier tagging.UserID
	Tags    []tagging.TagID
}

func (*QueryIssue) WireType() Type { return TypeQueryIssue }

func (m *QueryIssue) walk(c *binio.Codec) {
	binio.ID(c, &m.Querier)
	walkIDs(c, &m.Tags)
}

// QueryIssueAck confirms the member issued the query, echoing the ID its
// replica assigned so the lead can assert agreement.
type QueryIssueAck struct {
	OK  bool
	Qid uint64
}

func (*QueryIssueAck) WireType() Type { return TypeQueryIssueAck }

func (m *QueryIssueAck) walk(c *binio.Codec) {
	c.Bool(&m.OK)
	c.U64(&m.Qid)
}

// QueryStatus asks a daemon for the state of a query.
type QueryStatus struct {
	Qid uint64
}

func (*QueryStatus) WireType() Type { return TypeQueryStatus }
func (m *QueryStatus) walk(c *binio.Codec) {
	c.U64(&m.Qid)
}

// QueryStatusResp reports a query's progress as the answering daemon's
// replica holds it: recall counters, the traffic split and — once done —
// the result list. Every daemon replicates every query, so every daemon
// gives the same answer.
type QueryStatusResp struct {
	Known  bool
	Done   bool
	Cycles uint32 // eager cycles since issue
	Used   uint32 // profiles used so far
	Needed uint32 // personal network size + 1

	// Traffic attributed to this query, the replica's core.QueryBytes.
	Forwarded      uint64
	Returned       uint64
	PartialResults uint64
	Maintenance    uint64

	Results []topk.Entry // populated once Done
}

func (*QueryStatusResp) WireType() Type { return TypeQueryStatusResp }

func (m *QueryStatusResp) walk(c *binio.Codec) {
	c.Bool(&m.Known)
	c.Bool(&m.Done)
	c.U32(&m.Cycles)
	c.U32(&m.Used)
	c.U32(&m.Needed)
	c.U64(&m.Forwarded)
	c.U64(&m.Returned)
	c.U64(&m.PartialResults)
	c.U64(&m.Maintenance)
	walkEntries(c, &m.Results)
}

// Stats asks a daemon for its cluster-level counters.
type Stats struct{}

func (*Stats) WireType() Type    { return TypeStats }
func (*Stats) walk(*binio.Codec) {}

// PlaneStat is one connection plane's raw wire tally.
type PlaneStat struct {
	Msgs  uint64
	Bytes uint64
}

func walkPlane(c *binio.Codec, p *PlaneStat) {
	c.U64(&p.Msgs)
	c.U64(&p.Bytes)
}

// StatsResp reports a daemon's counters: cycles stepped, divergence
// detections (peer responses contradicting the local replica), raw wire
// volume — total and split by connection plane — the replica's
// event-machine depths, cumulative hostclock phase windows, and the
// replica's query totals, identical on every daemon. Every field is
// fixed-width, so the reply does not grow with the queries answered; one
// query's numbers are QueryStatus's.
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

	// Queries the replica issued and settled (recall 1) since start-up.
	QueriesIssued  uint64
	QueriesSettled uint64
}

func (*StatsResp) WireType() Type { return TypeStatsResp }

func (m *StatsResp) walk(c *binio.Codec) {
	c.U32(&m.Index)
	c.U64(&m.LazyCycles)
	c.U64(&m.EagerCycles)
	c.U64(&m.Divergence)
	c.U64(&m.WireMsgs)
	c.U64(&m.WireBytes)
	c.U32(&m.FrozenEvents)
	c.U32(&m.PendingEvents)
	c.U64(&m.PlanNanos)
	c.U64(&m.CommitNanos)
	c.U64(&m.SkewMaxNanos)
	walkPlane(c, &m.Data)
	walkPlane(c, &m.Ctrl)
	walkPlane(c, &m.Gateway)
	walkPlane(c, &m.Served)
	c.U64(&m.QueriesIssued)
	c.U64(&m.QueriesSettled)
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
