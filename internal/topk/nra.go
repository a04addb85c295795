package topk

import (
	"cmp"
	"fmt"
	"slices"

	"p3q/internal/idtab"
	"p3q/internal/tagging"
)

// NRA is the incremental No-Random-Access top-k operator of Algorithm 4.
//
// The querier cannot use a classical one-shot NRA because partial result
// lists arrive asynchronously, one batch per gossip cycle. NRA therefore
// keeps the scan state of every list across invocations: each Run cycle
// scans the newly arrived lists from their head, and previously stopped
// lists rejoin the scan when the cursor reaches the position where they
// stopped — so every list is scanned at most once over the whole
// processing, as §2.3 requires.
//
// Scores follow the classical NRA bounds. For a candidate item:
//
//   - worst-case score: the sum of its scores in the lists where it has
//     been seen (it is assumed absent everywhere else);
//   - best-case score: the worst-case plus, for every list where it has
//     not been seen, that list's last seen score.
//
// Scanning stops when no candidate outside the current top-k — nor any
// hypothetical item unseen in every list — has a best-case score above the
// worst-case score of the k-th candidate.
type NRA struct {
	k     int
	lists []scanList
	// cands is dense, in first-seen order; index maps an item to its
	// position in cands.
	cands []candidate
	index idtab.Table
	// top holds the cands indexes of the first min(k, len(cands)) candidates
	// of Algorithm 4's heap order — descending worst-case score, ties by
	// larger best-case score, then ascending item — as of the last rank.
	top []int
	// bound is, as of the last rank, the largest best-case score anything
	// outside top can still reach: the sum of lastSeen over all lists (an
	// item unseen everywhere) or the best-case of an unselected candidate.
	bound int
	// Scratch reused across Run calls: the indexes of the lists being
	// scanned, and each list's lastSeen for the rank in progress.
	scanning []int
	lastSeen []int
}

type scanList struct {
	entries  []Entry
	pos      int  // number of entries scanned so far
	scanning bool // in Run's scanning set (always false between Runs)
}

// lastSeen is the list's current upper bound for items not yet seen in it:
// the score at the last scanned position (the head score before any scan,
// zero once exhausted).
func (l *scanList) lastSeen() int {
	if l.pos >= len(l.entries) {
		return 0
	}
	if l.pos == 0 {
		return l.entries[0].Score
	}
	return l.entries[l.pos-1].Score
}

func (l *scanList) exhausted() bool { return l.pos >= len(l.entries) }

type candidate struct {
	item  tagging.ItemID
	worst int
	best  int // best-case score as of the last rank that did not skip it
	// seenIn lists the indexes of the lists where the item has been seen, in
	// scan order (each list contributes at most once). Old lists rejoin a
	// scan after newer ones, so the order is not ascending in general.
	seenIn []int
}

// before reports whether a precedes b in Algorithm 4's heap order. Items are
// unique, so the order is total and the ranking independent of slot order.
func (a *candidate) before(b *candidate) bool {
	if a.worst != b.worst {
		return a.worst > b.worst
	}
	if a.best != b.best {
		return a.best > b.best
	}
	return a.item < b.item
}

// NewNRA returns an incremental NRA operator for top-k queries.
func NewNRA(k int) *NRA {
	if k < 1 {
		k = 1
	}
	return &NRA{k: k}
}

// ScannedEntries returns the total number of list entries consumed by the
// scan so far — NRA's native cost metric (sequential accesses). The early
// stopping condition exists to keep this below the total entry count.
func (n *NRA) ScannedEntries() int {
	total := 0
	for i := range n.lists {
		total += n.lists[i].pos
	}
	return total
}

// TotalEntries returns the total number of entries across absorbed lists.
func (n *NRA) TotalEntries() int {
	total := 0
	for i := range n.lists {
		total += len(n.lists[i].entries)
	}
	return total
}

// Run absorbs a batch of newly arrived partial result lists (each sorted in
// canonical order, as produced by PartialList) and returns the current
// top-k estimate. Lists must not be mutated by the caller afterwards.
func (n *NRA) Run(newLists [][]Entry) []Entry {
	scanning := n.scanning[:0]
	for _, l := range newLists {
		if len(l) == 0 {
			continue
		}
		scanning = append(scanning, len(n.lists))
		n.lists = append(n.lists, scanList{entries: l, scanning: true})
	}

	// One round per scan position: rank, test the stop condition, advance
	// every scanning list by one entry. A round that consumes nothing ends
	// the Run with the ranking it started from still current: the estimate
	// cannot improve until new lists arrive.
	for position, progressed := 1, true; progressed; position++ {
		n.rank()
		if n.stopConditionMet() {
			break
		}
		progressed = false
		for _, li := range scanning {
			if n.scanOne(li) {
				progressed = true
			}
		}
		// Old lists that had stopped at this position rejoin the scan
		// (Algorithm 4, lines 18-22).
		for li := range n.lists {
			if l := &n.lists[li]; l.pos == position && !l.exhausted() && !l.scanning {
				l.scanning = true
				scanning = append(scanning, li)
			}
		}
	}
	for _, li := range scanning {
		n.lists[li].scanning = false
	}
	n.scanning = scanning
	return n.TopK()
}

// Drain scans every absorbed list to exhaustion and returns the now-exact
// top-k. The protocol calls this when a query completes (no remaining list
// anywhere): §2.2.2 guarantees "the accurate (recall of 1) personalized
// results" at that moment, which requires resolving any score bounds the
// early-stopping condition left open. Each list is still scanned at most
// once overall: Drain merely finishes scans the stop condition cut short.
func (n *NRA) Drain() []Entry {
	for li := range n.lists {
		for n.scanOne(li) {
		}
	}
	n.rank()
	return n.TopK()
}

// scanOne advances list li by one entry, updating its candidate. It reports
// whether an entry was consumed.
//
//p3q:hotpath
func (n *NRA) scanOne(li int) bool {
	l := &n.lists[li]
	if l.exhausted() {
		return false
	}
	e := l.entries[l.pos]
	l.pos++
	ci, ok := n.index.Get(uint32(e.Item))
	if !ok {
		ci = int32(len(n.cands))
		n.cands = append(n.cands, candidate{item: e.Item})
		n.index.Put(uint32(e.Item), ci)
	}
	c := &n.cands[ci]
	c.worst += e.Score
	c.seenIn = append(c.seenIn, li)
	return true
}

// TopK returns the current top-k estimate (ranked by worst-case score) with
// each entry carrying its worst-case score.
func (n *NRA) TopK() []Entry {
	out := make([]Entry, len(n.top))
	for i, ci := range n.top {
		out[i] = Entry{Item: n.cands[ci].item, Score: n.cands[ci].worst}
	}
	return out
}

// rank recomputes the best-case scores and selects the top-k in one pass
// over the candidates, with no sort: each candidate is inserted into the at
// most k slots of top if it precedes the last of them, and whatever is not
// selected — evicted from a slot or never admitted — raises bound instead.
// The stop test and TopK read nothing else, so the rest of Algorithm 4's
// heap is never ordered.
//
// Once top is full, a candidate with worst below the k-th's (not admitted)
// and worst + Σ lastSeen ≤ bound (cannot raise bound, as best ≤ worst + Σ
// lastSeen unless a hostile list has a negative score, which turns the skip
// off) is skipped before its seenIn walk: neither the k-th's worst nor bound
// falls within a rank, so top and bound end as the full walk leaves them.
//
//p3q:hotpath
func (n *NRA) rank() {
	lastSeen, sum, skip := n.lastSeen[:0], 0, true
	for i := range n.lists {
		ls := n.lists[i].lastSeen()
		lastSeen = append(lastSeen, ls)
		sum += ls
		skip = skip && ls >= 0
	}
	n.lastSeen = lastSeen
	top, bound := n.top[:0], sum
	for ci := range n.cands {
		c := &n.cands[ci]
		if skip && len(top) == n.k && c.worst < n.cands[top[n.k-1]].worst && c.worst+sum <= bound {
			continue
		}
		best := c.worst + sum
		for _, li := range c.seenIn {
			best -= lastSeen[li]
		}
		c.best = best
		j := len(top)
		switch {
		case j < n.k:
			top = append(top, ci)
		case c.before(&n.cands[top[j-1]]):
			j--
			bound = max(bound, n.cands[top[j]].best)
		default:
			bound = max(bound, best)
			continue
		}
		for ; j > 0 && c.before(&n.cands[top[j-1]]); j-- {
			top[j] = top[j-1]
		}
		top[j] = ci
	}
	n.top, n.bound = top, bound
}

// stopConditionMet implements the loop guard of Algorithm 4 (negated): stop
// when the worst-case score of the k-th candidate is at least the largest
// best-case score among candidates outside the top-k — including the bound
// for items not seen anywhere yet.
func (n *NRA) stopConditionMet() bool {
	return len(n.top) == n.k && n.cands[n.top[n.k-1]].worst >= n.bound
}

// NRAState is the serializable scan state of an incremental NRA operator:
// every absorbed list with its cursor and every candidate with its
// worst-case accumulation. The derived ranking (best-case bounds, the top-k
// selection) is a pure function of this state and is rebuilt by RestoreNRA,
// so it is deliberately not part of the snapshot.
type NRAState struct {
	K     int
	Lists []NRAListState
	Cands []NRACandidateState
}

// NRAListState is one absorbed partial result list and its scan cursor.
type NRAListState struct {
	Entries []Entry
	Pos     int
}

// NRACandidateState is one candidate's accumulated state. SeenIn holds the
// indexes of the lists the item has been seen in, in scan order.
type NRACandidateState struct {
	Item   tagging.ItemID
	Worst  int
	SeenIn []int
}

// State captures the operator for checkpointing. Candidates are emitted in
// ascending item order so the snapshot is deterministic; list entry and
// SeenIn slices are shared with the operator, not cloned. (slices.Grow
// reserves in one allocation and leaves an empty Lists or Cands nil.)
func (n *NRA) State() NRAState {
	st := NRAState{K: n.k}
	st.Lists = slices.Grow(st.Lists, len(n.lists))
	for i := range n.lists {
		st.Lists = append(st.Lists, NRAListState{Entries: n.lists[i].entries, Pos: n.lists[i].pos})
	}
	st.Cands = slices.Grow(st.Cands, len(n.cands))
	for i := range n.cands {
		c := &n.cands[i]
		st.Cands = append(st.Cands, NRACandidateState{Item: c.item, Worst: c.worst, SeenIn: c.seenIn})
	}
	slices.SortFunc(st.Cands, func(a, b NRACandidateState) int { return cmp.Compare(a.Item, b.Item) })
	return st
}

// RestoreNRA rebuilds an operator from a captured state, validating cursor
// and list-index bounds, and recomputes the derived ranking so TopK is
// immediately consistent. Identical future Run/Drain calls on the restored
// operator produce byte-for-byte the results of the original.
func RestoreNRA(st NRAState) (*NRA, error) {
	n := NewNRA(st.K)
	for i, l := range st.Lists {
		if l.Pos < 0 || l.Pos > len(l.Entries) {
			return nil, fmt.Errorf("topk: restored list %d has cursor %d outside [0, %d]", i, l.Pos, len(l.Entries))
		}
		n.lists = append(n.lists, scanList{entries: l.Entries, pos: l.Pos})
	}
	for _, c := range st.Cands {
		if _, dup := n.index.Put(uint32(c.Item), int32(len(n.cands))); dup {
			return nil, fmt.Errorf("topk: restored candidate %d duplicated", c.Item)
		}
		for _, li := range c.SeenIn {
			if li < 0 || li >= len(n.lists) {
				return nil, fmt.Errorf("topk: restored candidate %d seen in out-of-range list %d", c.Item, li)
			}
		}
		n.cands = append(n.cands, candidate{item: c.Item, worst: c.Worst, seenIn: c.SeenIn})
	}
	n.rank()
	return n, nil
}
