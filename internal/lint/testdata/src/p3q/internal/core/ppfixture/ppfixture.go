// Package ppfixture exercises the phasepurity analyzer: plan-phase write
// purity, worker-closure annotation coverage, and validation of the
// //p3q:phase directives themselves. A commit function's draws are the
// goldens' to catch and its map loop is maporder's.
package ppfixture

import "p3q/internal/randx"

type Node struct {
	score int
	memo  map[int]int
}

type Engine struct {
	nodes    []*Node
	queries  map[uint64]int
	cycleSeq uint64
	rng      *randx.Source
}

func (e *Engine) forEachIndex(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func (e *Engine) forEachNode(fn func(n *Node)) {
	for _, n := range e.nodes {
		fn(n)
	}
}

func (e *Engine) commitSharded(apply func(i int)) {
	apply(0)
}

//p3q:phase plan
func (e *Engine) planBad(i int) int {
	e.cycleSeq++                // want "plan-phase function planBad writes engine shared state"
	e.nodes[i].score = 1        // want "plan-phase function planBad writes engine shared state"
	e.queries[uint64(i)] = 2    // want "plan-phase function planBad writes engine shared state"
	return e.nodes[i].score + 1 // reads stay legal
}

// planOwn normalizes its own node: receiver-rooted writes are each
// worker's exclusively owned state, so they are legal in plan.
//
//p3q:phase plan
func (n *Node) planOwn() {
	n.score++
	n.memo = map[int]int{}
}

//p3q:phase commit
func (e *Engine) commitBad(i int) {
	_ = e.rng.Intn(10) // a draw that moves a stream fails the goldens
	child := e.rng.Split(7)
	_ = child.State()             // Split and State do not advance the stream
	for q, v := range e.queries { // want "iteration over map"
		_ = q
		_ = v
	}
	//p3q:orderinvariant each iteration touches a distinct key
	for q := range e.queries {
		delete(e.queries, q)
	}
	e.cycleSeq++ // commit owns the state it applies to
}

// helper is called from a plan worker closure without any annotation.
func (e *Engine) helper(i int) {} // want "helper is called from a forEachIndex worker closure but has no //p3q:phase annotation"

// misphased carries the wrong phase for the closure that calls it.
//
//p3q:phase plan
func (e *Engine) misphased(i int) {} // want "misphased is annotated //p3q:phase plan but is called from a commitSharded worker closure"

func (e *Engine) cycle() {
	e.forEachIndex(len(e.nodes), func(i int) {
		e.helper(i)
		e.planBad(i)
	})
	e.forEachNode(func(n *Node) {
		n.planOwn()
	})
	e.commitSharded(func(i int) {
		e.misphased(i)
		e.commitBad(i)
	})
}

//p3q:phase plan
//p3q:phase commit
func (e *Engine) twoPhased() {} // want-above "conflicting //p3q:phase directives on twoPhased: plan and commit"

//p3q:phase sideways
func (e *Engine) wrongArg() {} // want-above "//p3q:phase directive needs a phase argument: plan or commit"

//p3q:phase plan
// want-above "stale //p3q:phase directive: no function declaration starts on the line below it"

type notAFunction struct{}
