// Command bench is the repository's benchmark: six workloads from one
// engine cycle to a query on a live three-daemon cluster, each measured
// end to end with tracing off and, in a separate traced run, layer by
// layer. README.md in this directory says why each workload exists and
// what every metric means; BENCHMARK.json at the repository root names
// the same workloads and metrics for the regression driver.
//
//	go run ./bench -workload all -seed 7            # every workload, end to end
//	go run ./bench -workload cluster-query-3d -trace # per-layer run + trace file
//	go run ./bench -repeat 10                        # repeatability of the sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	// One P for everything that is timed. Two busy threads on the
	// reference box run 25-30% faster or slower from one process to the
	// next, depending on whether the host has its two vCPUs on one
	// physical core or two; one busy thread does not (README.md,
	// "Reference run"). Engines keep Workers=2, so the sharded plan/commit
	// code runs all the same; how well it scales is the per-layer
	// core.workers1_over_workers2_ratio, measured on two Ps.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit. For every
// workload it prints a table and then one JSON object on a line of its
// own, so the last line of standard output is always the result of the
// last workload.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 7, "seeds the engine and the query workload (the trace itself is pinned, see README.md)")
	seconds := fs.Float64("seconds", 10, "length of each timed section")
	trace := fs.Int("trace", 0, "1 repeats each workload with spans on, prints the per-layer metrics and writes a trace file")
	out := fs.String("out", filepath.Join("bench", "out"), "directory the trace files are written to")
	repeat := fs.Int("repeat", 0, "run the untraced sweep this many times, one seed each, and print the spread of every metric")
	if err := fs.Parse(normalizeTraceFlag(args)); err != nil {
		return 2
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have: all, %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	if *repeat > 0 {
		return runRepeat(selected, *repeat, *seed, *seconds, stdout, stderr)
	}

	traced := *trace != 0
	code := 0
	for _, w := range selected {
		v := &env{seed: *seed, seconds: *seconds, sz: fullSizes, stderr: stderr}
		res := execute(w, v, traced)
		res.print(stdout, w, traced)
		if traced {
			path := filepath.Join(*out, w.name+".trace.json")
			if err := res.writeTrace(path, w, *seed); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				code = 1
			} else {
				fmt.Fprintf(stdout, "trace written to %s\n", path)
			}
		}
		if err := json.NewEncoder(stdout).Encode(res.report(traced)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
		}
		if !res.correct() {
			code = 1
		}
		if res.aborted {
			// A cluster op missed its watchdog: daemon goroutines are
			// parked for good, so nothing after this point can be trusted
			// to return.
			return 1
		}
	}
	return code
}

// normalizeTraceFlag lets -trace be given bare (the documented form) or
// with a value (the regression driver passes "--trace 0" and "--trace 1"):
// the flag package would read the separate value of a boolean flag as the
// first positional argument and stop parsing there.
func normalizeTraceFlag(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a != "-trace" && a != "--trace" {
			out = append(out, a)
			continue
		}
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, "-trace=1")
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runRepeat is the tool behind the repeatability criterion: it runs the
// untraced sweep n times, each time with the next seed, and reports per
// (workload, metric) the median, the quartiles and whether the
// interquartile spread stays inside the metric's bound.
func runRepeat(selected []workload, n int, seed uint64, seconds float64, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range selected {
		series := make(map[string][]float64)
		for i := 0; i < n; i++ {
			v := &env{seed: seed + uint64(i), seconds: seconds, sz: fullSizes, stderr: io.Discard}
			res := execute(w, v, false)
			if !res.correct() {
				fmt.Fprintf(stderr, "bench: %s seed %d: %d of %d ops failed: %s\n",
					w.name, v.seed, res.failed, res.attempted, strings.Join(res.problems, "; "))
				code = 1
			}
			if res.aborted {
				return 1
			}
			for _, m := range endToEnd {
				series[m.Name] = append(series[m.Name], res.vals[m.Name])
			}
		}
		fmt.Fprintf(stdout, "%s, %d runs, seeds %d..%d\n", w.name, n, seed, seed+uint64(n)-1)
		fmt.Fprintf(stdout, "  %-20s %-7s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, m := range endToEnd {
			xs := append([]float64(nil), series[m.Name]...)
			sort.Float64s(xs)
			q1, med, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			verdict := "ok"
			if m.Name != "setup_s" && spread > m.Bound {
				verdict = "WIDE"
				code = 1
			}
			fmt.Fprintf(stdout, "  %-20s %-7s %14.4f %14.4f %14.4f %7.2f%% %5.1f%% %s\n",
				m.Name, m.Unit, q1, med, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	return code
}
