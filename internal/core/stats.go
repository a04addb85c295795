package core

import (
	"fmt"

	"p3q/internal/sim"
	"p3q/internal/tagging"
)

// EngineStats is a point-in-time summary of a running engine, for
// monitoring and the example tools.
type EngineStats struct {
	Users  int
	Online int

	LazyCycles  int
	EagerCycles int

	// MeanNeighbours is the average personal network fill across online
	// nodes; MeanStored the average number of stored replicas.
	MeanNeighbours float64
	MeanStored     float64
	// StoredActions is the total number of tagging actions held as
	// replicas across all nodes (the Figure 5 storage metric, aggregated).
	StoredActions int

	QueriesIssued int
	QueriesDone   int
	// QueriesStalled counts queries suspended because their querier
	// departed mid-query; they resume when the querier revives.
	QueriesStalled int

	Traffic sim.Traffic
}

// Stats summarizes the engine's current state in O(users + stored).
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Users:         len(e.nodes),
		Online:        e.net.OnlineCount(),
		LazyCycles:    e.lazyCycles,
		EagerCycles:   e.eagerCycles,
		QueriesIssued: len(e.queryOrder),
		Traffic:       e.net.Total(),
	}
	var neighbours, stored int
	for _, n := range e.nodes {
		neighbours += n.pnet.Len()
		for _, entry := range n.pnet.StoredEntries() {
			stored++
			st.StoredActions += entry.Stored.Len()
		}
	}
	if st.Users > 0 {
		st.MeanNeighbours = float64(neighbours) / float64(st.Users)
		st.MeanStored = float64(stored) / float64(st.Users)
	}
	// Every query not yet settled is on the active list, so the rest of
	// the issued ones are done.
	open := 0
	for _, qr := range e.active {
		if !qr.done {
			open++
			if qr.Stalled() {
				st.QueriesStalled++
			}
		}
	}
	st.QueriesDone = st.QueriesIssued - open
	return st
}

// String renders the summary on two lines.
func (s EngineStats) String() string {
	return fmt.Sprintf(
		"nodes %d (%d online), cycles lazy=%d eager=%d, queries %d/%d done\n"+
			"pnet fill %.1f, stored %.1f replicas/user (%s replica data), traffic %d msgs / %s",
		s.Users, s.Online, s.LazyCycles, s.EagerCycles, s.QueriesDone, s.QueriesIssued,
		s.MeanNeighbours, s.MeanStored,
		byteCount(uint64(tagging.ActionsWireSize(s.StoredActions))),
		s.Traffic.TotalMsgs(), byteCount(s.Traffic.TotalBytes()))
}

// byteCount renders a byte quantity with a binary-ish unit.
func byteCount(b uint64) string {
	const unit = 1000
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %cB", float64(b)/float64(div), "KMGTPE"[exp])
}
