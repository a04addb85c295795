// Warmstart: converge the overlay once, checkpoint it, and fork many
// scenario rows from the shared snapshot — the converge-once-fork-many
// pattern the checkpoint/restore subsystem exists for.
//
// Organic convergence (Bootstrap + lazy cycles) is the expensive prefix
// every scenario over a converged overlay repeats. Here it runs exactly
// once; Engine.Snapshot captures the complete engine state (personal
// networks, random views, RNG streams, traffic counters — see
// ARCHITECTURE.md) and p3q.RestoreEngine forks three independent rows from
// it: a synchronous query burst, the same burst under heavy-tailed
// latency, and the same burst under churn. Each fork continues
// byte-for-byte as the converged engine would — restoring is not an
// approximation — so the rows differ only in what the scenario does next.
// The wall-clock timings go to stderr, since they differ from run to run;
// stdout is the same on every run.
//
// Run with: go run ./examples/warmstart
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"p3q"
)

func main() {
	const users = 400
	params := p3q.DefaultTraceParams(users)
	params.MeanItems = 25
	params.Seed = 11
	ds := p3q.GenerateTrace(params)

	cfg := p3q.DefaultConfig()
	cfg.S, cfg.C = 30, 6
	cfg.Seed = 11

	// The expensive prefix, paid once: organic convergence from a cold
	// bootstrap.
	const lazyCycles = 60
	start := time.Now()
	engine := p3q.NewEngine(ds, cfg)
	engine.Bootstrap()
	engine.RunLazy(lazyCycles)
	converge := time.Since(start)

	start = time.Now()
	var snap bytes.Buffer
	if err := engine.Snapshot(&snap); err != nil {
		panic(err)
	}
	fmt.Fprintf(os.Stderr, "converged in %s; snapshot written in %s\n",
		converge.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Printf("converged %d users over %d lazy cycles; snapshot: %d KB\n\n",
		users, lazyCycles, snap.Len()/1024)

	queries := p3q.GenerateQueries(ds, 99)[:60]
	var forks time.Duration

	fork := func(scenario string, cfg p3q.Config, run func(e *p3q.Engine)) {
		start := time.Now()
		e, err := p3q.RestoreEngine(bytes.NewReader(snap.Bytes()), ds, cfg)
		if err != nil {
			panic(err)
		}
		restored := time.Since(start)
		forks += restored
		fmt.Println(scenario)
		fmt.Fprintf(os.Stderr, "  forked in %s\n", restored.Round(time.Millisecond))
		run(e)
		fmt.Println()
	}

	burst := func(e *p3q.Engine) []time.Duration {
		var runs []*p3q.QueryRun
		for _, q := range queries {
			if qr := e.IssueQuery(q); qr != nil {
				runs = append(runs, qr)
			}
		}
		e.RunEager(400)
		var full []time.Duration
		for _, qr := range runs {
			if d, ok := qr.TimeToFullRecall(); ok {
				full = append(full, d)
			}
		}
		return full
	}

	fork("row 1: synchronous query burst", cfg, func(e *p3q.Engine) {
		full := burst(e)
		fmt.Printf("  %d/%d queries to full recall, median %s on the virtual clock\n",
			len(full), len(queries), median(full))
	})

	latencyCfg := cfg
	latencyCfg.Latency = p3q.LogNormalLatency{Median: time.Second, Sigma: 1.0}
	fork("row 2: same burst, lognormal(1s) delivery", latencyCfg, func(e *p3q.Engine) {
		full := burst(e)
		fmt.Printf("  %d/%d queries to full recall, median %s (mid-cycle settles)\n",
			len(full), len(queries), median(full))
	})

	fork("row 3: same burst with 30% mid-burst departures", cfg, func(e *p3q.Engine) {
		var runs []*p3q.QueryRun
		for _, q := range queries {
			if qr := e.IssueQuery(q); qr != nil {
				runs = append(runs, qr)
			}
		}
		e.RunEager(2)
		killed := e.Kill(0.3)
		e.RunEager(10)
		e.Revive(killed)
		e.RunEager(400)
		done := 0
		for _, qr := range runs {
			if qr.Done() {
				done++
			}
		}
		fmt.Printf("  %d departed and revived; %d/%d queries still reached full recall\n",
			len(killed), done, len(runs))
	})

	cold := 3 * converge
	warm := converge + forks
	fmt.Fprintf(os.Stderr, "wall clock: converged once + 3 forks = %s; re-converging per row would cost ~%s (saved ~%s)\n",
		warm.Round(time.Millisecond), cold.Round(time.Millisecond), (cold - warm).Round(time.Millisecond))
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
