package p3q_test

import (
	"fmt"
	"time"

	"p3q"
	"p3q/internal/core"
)

// ExampleEngine_IssueQuery demonstrates the full protocol flow: generate a
// workload, seed converged personal networks, issue a personalized query
// and refine it to completion.
func ExampleEngine_IssueQuery() {
	params := p3q.DefaultTraceParams(120)
	params.MeanItems = 20
	params.Seed = 3
	ds := p3q.GenerateTrace(params)

	cfg := p3q.DefaultConfig()
	cfg.S, cfg.C = 20, 5
	nets := p3q.IdealNetworks(ds, cfg.S)
	engine := p3q.NewEngine(ds, cfg)
	engine.SeedIdealNetworks(nets)

	q, _ := p3q.QueryFor(ds, 7, 1)
	run := engine.IssueQuery(q)
	for !run.Done() {
		engine.EagerCycle()
	}

	ref := p3q.NewCentralizedWithNets(ds, nets, cfg.K)
	fmt.Printf("recall %.1f with %d/%d profiles\n",
		p3q.Recall(run.Results(), ref.TopK(q)),
		run.ProfilesUsed(), run.ProfilesNeeded())
	// Output: recall 1.0 with 21/21 profiles
}

// ExampleExpander shows personalized query expansion: the tags co-occurring
// with a query inside the querier's known profiles.
func ExampleExpander() {
	v := p3q.NewVocabulary()
	matrix, algebra := v.Tag("matrix"), v.Tag("linearalgebra")
	wiki := v.Item("wikipedia.org/Matrix_(mathematics)")
	course := v.Item("mit.edu/linear-algebra")

	p := p3q.NewProfile(0)
	p.Add(wiki, matrix)
	p.Add(wiki, algebra)
	p.Add(course, matrix)
	p.Add(course, algebra)

	x := p3q.NewExpander([]p3q.Snapshot{p.Snapshot()})
	for _, c := range x.Suggest([]p3q.TagID{matrix}, 1) {
		fmt.Println(v.TagName(c.Tag))
	}
	// Output: linearalgebra
}

// ExampleClock drives the bimodal protocol in simulated wall-clock time:
// lazy maintenance every minute, eager query gossip every five seconds.
func ExampleClock() {
	params := p3q.DefaultTraceParams(100)
	params.MeanItems = 20
	params.Seed = 4
	ds := p3q.GenerateTrace(params)

	cfg := p3q.DefaultConfig()
	cfg.S, cfg.C = 20, 5
	engine := p3q.NewEngine(ds, cfg)
	engine.SeedIdealNetworks(p3q.IdealNetworks(ds, cfg.S))

	clock := core.NewClock(engine)
	q, _ := p3q.QueryFor(ds, 3, 2)
	run := engine.IssueQuery(q)
	elapsed := clock.RunUntilQueriesDone(2 * time.Minute)
	fmt.Printf("done=%v within %v\n", run.Done(), elapsed <= 2*time.Minute)
	// Output: done=true within true
}
