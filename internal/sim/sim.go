// Package sim is the network substrate of the reproduction: the
// cycle-driven simulation equivalent of PeerSim's cycle-based mode used by
// the paper's evaluation. It models node liveness (churn) and accounts
// every message and byte exchanged, per category and per node, so the
// bandwidth figures of §3.3 can be regenerated.
//
// Three pieces make up the substrate:
//
//   - Network tracks liveness and the per-kind / per-node traffic counters.
//   - Ledger is the thread-confined recorder the engine's parallel phases
//     write into; committing a cycle's ledgers in a canonical order makes
//     the counters independent of how work was scheduled across workers
//     (see Ledger). Ledger.BytesSince brackets commit-time sub-sequences so
//     their traffic can be attributed to the exchange that caused it.
//   - EventQueue and the LatencyModel implementations (events.go) are the
//     event-driven half: a deterministic priority queue of timestamped
//     events plus pluggable per-message delay distributions (fixed,
//     uniform, log-normal, geo-zone matrix), which the engine uses for
//     asynchronous eager delivery — messages arriving at model-drawn times
//     instead of cycle boundaries.
//
// The protocol logic itself lives in package core; sim deliberately knows
// nothing about gossip or queries beyond the message taxonomy.
package sim

import (
	"fmt"

	"p3q/internal/randx"
	"p3q/internal/tagging"
)

// NodeID identifies a node; it equals the user ID running on it.
type NodeID = tagging.UserID

// Kind classifies messages for traffic accounting. The categories follow
// the paper's cost analysis: digest exchanges, the three steps of profile
// transfer, and the three kinds of query-processing information of §3.3.2
// ("the forwarded remaining list, the returned remaining list and the
// partial result lists returned to the querier").
type Kind int

const (
	// MsgRandomView is a bottom-layer peer-sampling digest exchange.
	MsgRandomView Kind = iota
	// MsgTopDigest is the first step of the top-layer exchange: profile
	// digests.
	MsgTopDigest
	// MsgCommonItems is the second step: tagging actions for common items,
	// used to compute exact similarity scores.
	MsgCommonItems
	// MsgProfile is the third step: full profile transfer for storage.
	MsgProfile
	// MsgQueryForward carries a query and the forwarded remaining list.
	MsgQueryForward
	// MsgQueryReturn carries the remaining-list portion sent back to the
	// gossip initiator.
	MsgQueryReturn
	// MsgPartialResult carries a partial result list to the querier.
	MsgPartialResult
	// MsgProbe is a failed contact attempt on a departed node.
	MsgProbe

	numKinds
)

var kindNames = [numKinds]string{
	"random-view", "top-digest", "common-items", "profile",
	"query-forward", "query-return", "partial-result", "probe",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ProbeBytes is the cost charged for a failed contact attempt: a minimal
// header-sized message.
const ProbeBytes = 8

// Traffic accumulates message and byte counts per kind. The zero value is
// an empty counter ready to use. Traffic values are small and copyable;
// Checkpoint/Since use that for windowed measurements.
type Traffic struct {
	Msgs  [numKinds]uint64
	Bytes [numKinds]uint64
}

// Add records one message of the given kind and size.
func (t *Traffic) Add(k Kind, bytes int) {
	t.Msgs[k]++
	t.Bytes[k] += uint64(bytes)
}

// Since returns the difference t - prev, where prev is an earlier copy of
// the same counter.
func (t Traffic) Since(prev Traffic) Traffic {
	var d Traffic
	for i := range t.Msgs {
		d.Msgs[i] = t.Msgs[i] - prev.Msgs[i]
		d.Bytes[i] = t.Bytes[i] - prev.Bytes[i]
	}
	return d
}

// Snapshot returns the raw per-kind counters — the exact state the
// checkpoint codec persists. Restore is its inverse; the
// snapshotcomplete analyzer verifies the pair covers every Traffic
// field.
func (t Traffic) Snapshot() (msgs, bytes [numKinds]uint64) {
	return t.Msgs, t.Bytes
}

// Restore overwrites the counter with state captured by Snapshot.
func (t *Traffic) Restore(msgs, bytes [numKinds]uint64) {
	t.Msgs, t.Bytes = msgs, bytes
}

// TotalMsgs returns the total message count across kinds.
func (t Traffic) TotalMsgs() uint64 {
	var s uint64
	for _, v := range t.Msgs {
		s += v
	}
	return s
}

// TotalBytes returns the total byte count across kinds.
func (t Traffic) TotalBytes() uint64 {
	var s uint64
	for _, v := range t.Bytes {
		s += v
	}
	return s
}

// Network tracks node liveness and message traffic for a population of n
// nodes. It is not safe for concurrent use; the cycle-driven engine is
// single-threaded by design (determinism).
type Network struct {
	online  []bool
	nOnline int
	total   Traffic
	perNode []Traffic // traffic *sent* by each node
}

// NewNetwork returns a network of n nodes, all online.
func NewNetwork(n int) *Network {
	online := make([]bool, n)
	for i := range online {
		online[i] = true
	}
	return &Network{
		online:  online,
		nOnline: n,
		perNode: make([]Traffic, n),
	}
}

// Online reports whether the node is online.
func (nw *Network) Online(u NodeID) bool { return nw.online[u] }

// OnlineCount returns the number of online nodes.
func (nw *Network) OnlineCount() int { return nw.nOnline }

// SetOnline changes a node's liveness.
func (nw *Network) SetOnline(u NodeID, on bool) {
	if nw.online[u] == on {
		return
	}
	nw.online[u] = on
	if on {
		nw.nOnline++
	} else {
		nw.nOnline--
	}
}

// Kill takes a fraction p of currently online nodes offline, chosen
// uniformly at random, and returns their IDs. This models the simultaneous
// massive departure scenario of §3.4.2.
func (nw *Network) Kill(p float64, rng *randx.Source) []NodeID {
	if p <= 0 {
		return nil
	}
	if p > 1 {
		p = 1
	}
	alive := make([]NodeID, 0, nw.nOnline)
	for u, on := range nw.online {
		if on {
			alive = append(alive, NodeID(u))
		}
	}
	k := int(float64(len(alive))*p + 0.5)
	var killed []NodeID
	for _, i := range rng.Sample(len(alive), k) {
		u := alive[i]
		nw.SetOnline(u, false)
		killed = append(killed, u)
	}
	return killed
}

// Total returns a copy of the global traffic counter.
func (nw *Network) Total() Traffic { return nw.total }

// NodeTraffic returns a copy of the traffic sent by one node.
func (nw *Network) NodeTraffic(u NodeID) Traffic { return nw.perNode[u] }

// RestoreTraffic overwrites the network's traffic counters — the global
// total and every per-node counter — from a checkpoint. perNode must carry
// exactly one counter per node.
func (nw *Network) RestoreTraffic(total Traffic, perNode []Traffic) error {
	if len(perNode) != len(nw.perNode) {
		return fmt.Errorf("sim: RestoreTraffic got %d per-node counters for %d nodes", len(perNode), len(nw.perNode))
	}
	nw.total = total
	copy(nw.perNode, perNode)
	return nil
}
