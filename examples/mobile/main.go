// Mobile: the paper's lambda=1 heterogeneous scenario — "a network where
// the users are for instance mobile phones with limited memory" (§3.1.2).
// Most devices store only a handful of profiles; the example reports the
// storage/latency/bandwidth trade-off P3Q offers them, after converging the
// personal networks organically through the lazy mode (no oracle).
//
// Run with: go run ./examples/mobile
package main

import (
	"fmt"

	"p3q"
	"p3q/internal/randx"
)

func main() {
	const users = 250
	params := p3q.DefaultTraceParams(users)
	params.MeanItems = 25
	params.Seed = 7
	ds := p3q.GenerateTrace(params)

	// Heterogeneous storage: Poisson(lambda=1) over the Table 1 classes,
	// scaled to s — most devices get the two smallest classes.
	cfg := p3q.DefaultConfig()
	cfg.S = 30
	rng := randx.NewSource(11)
	classes := rng.AssignStorage(users, 1)
	cfg.CAssign = make([]int, users)
	hist := map[int]int{}
	for i, class := range classes {
		c := class * cfg.S / 1000
		if c < 1 {
			c = 1
		}
		cfg.CAssign[i] = c
		hist[c]++
	}
	fmt.Println("storage classes (profiles stored -> devices):")
	for _, c := range []int{1, 3, 6, 15, 30} {
		if hist[c] > 0 {
			fmt.Printf("  c=%-3d %4d devices\n", c, hist[c])
		}
	}

	// Organic convergence: bootstrap random views, run the lazy mode.
	engine := p3q.NewEngine(ds, cfg)
	engine.Bootstrap()
	fmt.Println("\nconverging personal networks (lazy mode)...")
	engine.RunLazy(40)

	// Every device asks one personalized query.
	reference := p3q.NewCentralized(ds, cfg.S, cfg.K)
	queries := p3q.GenerateQueries(ds, 3)
	for _, q := range queries {
		engine.IssueQuery(q)
	}
	for cycle := 0; cycle < 25 && !engine.AllQueriesDone(); cycle++ {
		engine.EagerCycle()
	}

	var recall, cycles, bytesAll float64
	runs := engine.Queries()
	for _, run := range runs {
		recall += p3q.Recall(run.Results(), reference.TopK(run.Query))
		cycles += float64(run.Cycles())
		bytesAll += float64(run.Bytes().Total())
	}
	n := float64(len(runs))
	fmt.Printf("\nafter organic convergence, %d queries (one per device):\n", len(runs))
	fmt.Printf("  average recall vs centralized baseline: %.2f\n", recall/n)
	fmt.Printf("  average eager cycles per query:         %.1f (= %.0fs at 5s/cycle)\n",
		cycles/n, cycles/n*5)
	fmt.Printf("  average query payload traffic:          %.1f KB\n", bytesAll/n/1000)
	fmt.Println("\nlimited-memory devices trade storage for a few gossip cycles of latency;")
	fmt.Println("the first cycle already returns most relevant items (paper §3.2.2).")
}
