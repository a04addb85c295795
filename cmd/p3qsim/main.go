// Command p3qsim regenerates the tables and figures of "Gossiping
// Personalized Queries" (Bai et al., EDBT 2010) from this repository's
// implementation of P3Q.
//
// Usage:
//
//	p3qsim -exp fig3                 # one experiment at the default scale
//	p3qsim -exp all                  # the whole evaluation section
//	p3qsim -exp list                 # list experiment ids
//	p3qsim -exp fig2 -users 10000 -s 1000 -mean-items 249   # paper scale
//	p3qsim -exp fig6 -csv            # machine-readable output
//	p3qsim -exp latency              # async delivery: time-to-result distributions
//	p3qsim -exp fig3 -latency lognormal:1s,0.8   # any experiment under a latency model
//
// Long runs checkpoint and resume through the converge driver:
//
//	p3qsim -exp converge -cycles 200 -checkpoint-every 50 -checkpoint-dir ckpt
//	p3qsim -exp converge -cycles 200 -resume ckpt/checkpoint_cycle_0100.p3qc
//
// A checkpoint captures the complete engine state (see ARCHITECTURE.md);
// resuming reproduces the uninterrupted run byte for byte, for any
// -workers value.
//
// Each experiment prints one table per paper artifact (§3 of the paper),
// to be compared with the paper's figures by shape and ordering.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"p3q/internal/core"
	"p3q/internal/experiments"
	"p3q/internal/metrics"
	"p3q/internal/obs"
	"p3q/internal/sim"
)

// die prints a one-line friendly error and exits non-zero — never a panic,
// never a usage dump.
func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p3qsim: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		exp       = flag.String("exp", "list", "experiment id, 'all', or 'list'")
		users     = flag.Int("users", 0, "population size (0 = default)")
		s         = flag.Int("s", 0, "personal network size (0 = default)")
		k         = flag.Int("k", 0, "top-k size (0 = default)")
		queries   = flag.Int("queries", 0, "queries per scenario (0 = default)")
		cycles    = flag.Int("cycles", 0, "base cycle budget (0 = default)")
		meanItems = flag.Float64("mean-items", 0, "mean items per user in the trace (0 = default)")
		workers   = flag.Int("workers", 0, "planning workers and commit shards for both lazy and eager cycles (0 = all cores; output is identical for every value)")
		latency   = flag.String("latency", "", "per-message latency model for eager delivery: none (zero delay, the default — same as fixed:0), fixed:<d>, uniform:<min>,<max>, lognormal:<median>,<sigma>, or geo:<zones>,<intra>,<inter> — e.g. fixed:50ms, uniform:10ms,200ms, lognormal:1s,0.8, geo:3,25ms,120ms; with a model set, partial results arrive mid-cycle and queries report time-to-first-result / time-to-full-recall (see the 'latency' experiment)")
		seed      = flag.Uint64("seed", 0, "random seed (0 = default)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir    = flag.String("out", "", "also write one CSV file per table into this directory")
		ckptEvery = flag.Int("checkpoint-every", 0, "converge driver: write a checkpoint every N cycles into -checkpoint-dir (0 = only the final checkpoint, if a dir is set)")
		ckptDir   = flag.String("checkpoint-dir", "", "converge driver: directory receiving checkpoint_cycle_NNNN.p3qc files")
		resume    = flag.String("resume", "", "converge driver: restore engine state from this checkpoint file and continue the run")
		obsOut    = flag.String("obs-out", "", "converge driver: stream query lifecycle events as JSON lines into this file ('-' = stderr); attaching the stream never changes the run")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *users > 0 {
		cfg.Users = *users
	}
	if *s > 0 {
		cfg.S = *s
	}
	if *k > 0 {
		cfg.K = *k
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *cycles > 0 {
		cfg.Cycles = *cycles
	}
	if *meanItems > 0 {
		cfg.MeanItems = *meanItems
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *latency != "" {
		m, err := sim.ParseLatency(*latency)
		if err != nil {
			die("%v", err)
		}
		cfg.Latency = m
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}
	if *ckptEvery < 0 {
		die("-checkpoint-every must be non-negative, got %d", *ckptEvery)
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		die("-checkpoint-every needs -checkpoint-dir to know where checkpoints go")
	}
	usesCheckpoints := *ckptEvery > 0 || *ckptDir != "" || *resume != ""
	if usesCheckpoints && *exp != "converge" {
		die("checkpoint flags apply to the converge driver; run with -exp converge")
	}
	if *obsOut != "" && *exp != "converge" {
		die("-obs-out applies to the converge driver; run with -exp converge")
	}

	switch *exp {
	case "list":
		fmt.Println("available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Printf("  %-10s %s\n", r.Name, r.Paper)
		}
		fmt.Printf("  %-10s %s\n", "converge", "driver: converge the overlay and process a query burst, with periodic checkpoints (-checkpoint-every/-checkpoint-dir) and resume (-resume)")
		return
	case "all":
		for _, r := range experiments.Registry() {
			run(r, cfg, *csv, *outDir)
		}
		return
	case "converge":
		runConverge(cfg, *ckptEvery, *ckptDir, *resume, *obsOut)
		return
	default:
		r, ok := experiments.Lookup(*exp)
		if !ok {
			die("unknown experiment %q (try -exp list)", *exp)
		}
		run(r, cfg, *csv, *outDir)
	}
}

// runConverge is the checkpoint-aware simulation driver: converge the
// overlay for -cycles lazy cycles, then issue -queries queries and run the
// eager mode to completion, writing a checkpoint every -checkpoint-every
// cycles (and a final one when -checkpoint-dir is set). With -resume the
// engine restores from the given file — over the deterministically
// regenerated base trace, so the same flags must be passed — and continues
// exactly where the checkpointed run stopped.
//
// The driver always attaches a telemetry registry (observation is
// fingerprint-neutral by the obs contract) and prints a progress line to
// stderr every couple of seconds; with obsOut set it additionally streams
// every query lifecycle event as one JSON line.
func runConverge(cfg experiments.Config, every int, dir, resume, obsOut string) {
	start := time.Now()
	// cfg.CoreConfig and cfg.Workload are the derivations the experiments
	// harness uses, so a checkpoint written here restores in either with the
	// same flags.
	cc := cfg.CoreConfig(10)
	ds, queries := cfg.Workload()

	var e *core.Engine
	if resume != "" {
		f, err := os.Open(resume)
		if err != nil {
			die("cannot resume: %v", err)
		}
		e, err = core.Restore(f, ds, cc)
		f.Close()
		if err != nil {
			die("cannot resume from %s: %v", resume, err)
		}
		fmt.Printf("resumed from %s at lazy cycle %d (eager %d, %d queries issued)\n",
			resume, e.LazyCycles(), e.EagerCycles(), len(e.Queries()))
	} else {
		e = core.New(ds, cc)
		e.Bootstrap()
	}

	reg := obs.New()
	e.SetObs(reg)
	if obsOut != "" {
		closeSink, err := streamEvents(reg, obsOut)
		if err != nil {
			die("%v", err)
		}
		defer closeSink()
	}
	lastProgress := time.Now()
	progress := func(mode string) {
		if time.Since(lastProgress) < 2*time.Second {
			return
		}
		lastProgress = time.Now()
		fmt.Fprintf(os.Stderr, "[%s lazy=%d eager=%d issued=%d settled=%d frozen=%d commit_bytes=%d plan=%s commit=%s]\n",
			mode, e.LazyCycles(), e.EagerCycles(),
			reg.EventCount(obs.EvIssued), reg.EventCount(obs.EvSettled),
			reg.EventCount(obs.EvFrozen), reg.Counter(obs.CCommitBytes),
			reg.PhaseTotal(obs.PhasePlan).Round(time.Millisecond),
			reg.PhaseTotal(obs.PhaseCommit).Round(time.Millisecond))
	}

	cycles := func() int { return e.LazyCycles() + e.EagerCycles() }
	lastCkpt := -1
	maybeCheckpoint := func(force bool) {
		if dir == "" || cycles() == lastCkpt {
			return
		}
		if !force && (every == 0 || cycles()%every != 0) {
			return
		}
		path := filepath.Join(dir, fmt.Sprintf("checkpoint_cycle_%04d.p3qc", cycles()))
		if err := writeCheckpoint(e, dir, path); err != nil {
			die("%v", err)
		}
		lastCkpt = cycles()
		fmt.Printf("checkpoint written: %s\n", path)
	}

	for e.LazyCycles() < cfg.Cycles {
		e.LazyCycle()
		maybeCheckpoint(false)
		progress("converge")
	}
	if len(e.Queries()) == 0 {
		for _, q := range queries {
			e.IssueQuery(q)
		}
	}
	for e.EagerCycles() < cfg.Cycles*10 && !e.AllQueriesDone() {
		e.EagerCycle()
		maybeCheckpoint(false)
		progress("query")
	}
	maybeCheckpoint(true)

	fmt.Printf("%s\n[converge: %d lazy + %d eager cycles in %s, users=%d s=%d seed=%d]\n",
		e.Stats(), e.LazyCycles(), e.EagerCycles(), time.Since(start).Round(time.Millisecond),
		cfg.Users, cfg.S, cfg.Seed)
}

// streamEvents wires a JSON-lines sink into the registry, one object per
// query lifecycle event, and returns the flush/close function. "-" streams
// to stderr so the event log interleaves with the progress lines.
func streamEvents(reg *obs.Registry, path string) (func(), error) {
	out := os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("cannot open -obs-out file: %v", err)
		}
		out = f
	}
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	type jsonEvent struct {
		Kind  string `json:"kind"`
		Qid   uint64 `json:"qid"`
		Cycle uint64 `json:"cycle"`
		AtNs  int64  `json:"at_ns"`
		Node  uint64 `json:"node"`
		Peer  uint64 `json:"peer"`
		Bytes uint64 `json:"bytes,omitempty"`
	}
	reg.SetSink(func(ev obs.QueryEvent) {
		err := enc.Encode(jsonEvent{
			Kind:  ev.Kind.String(),
			Qid:   ev.Qid,
			Cycle: ev.Cycle,
			AtNs:  ev.At.Nanoseconds(),
			Node:  ev.Node,
			Peer:  ev.Peer,
			Bytes: ev.Bytes,
		})
		if err != nil {
			die("writing -obs-out stream: %v", err)
		}
	})
	return func() {
		if err := bw.Flush(); err != nil {
			die("flushing -obs-out stream: %v", err)
		}
		if out != os.Stderr {
			if err := out.Close(); err != nil {
				die("closing -obs-out file: %v", err)
			}
		}
	}, nil
}

// writeCheckpoint snapshots the engine into path, creating the directory on
// first use and writing through a temp file so a crash mid-write never
// leaves a truncated checkpoint behind.
func writeCheckpoint(e *core.Engine, dir, path string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cannot create checkpoint dir: %v", err)
	}
	tmp, err := os.CreateTemp(dir, "checkpoint_*.tmp")
	if err != nil {
		return fmt.Errorf("cannot write checkpoint: %v", err)
	}
	if err := e.Snapshot(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cannot write checkpoint: %v", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cannot write checkpoint: %v", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cannot write checkpoint: %v", err)
	}
	return nil
}

func run(r experiments.Runner, cfg experiments.Config, csv bool, outDir string) {
	start := time.Now()
	tables := r.Run(cfg)
	elapsed := time.Since(start).Round(time.Millisecond)
	for i, tb := range tables {
		var err error
		if csv {
			err = tb.TitledCSV(os.Stdout)
		} else {
			err = tb.Fprint(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "p3qsim: writing output: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		if outDir != "" {
			if err := writeCSVFile(outDir, r.Name, i, len(tables), tb); err != nil {
				fmt.Fprintf(os.Stderr, "p3qsim: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "[%s: %d table(s) in %s, users=%d s=%d seed=%d]\n",
		r.Name, len(tables), elapsed, cfg.Users, cfg.S, cfg.Seed)
}

// writeCSVFile stores one table as <dir>/<experiment>[_partN].csv for
// plotting tools.
func writeCSVFile(dir, name string, idx, total int, tb *metrics.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	filename := name + ".csv"
	if total > 1 {
		filename = fmt.Sprintf("%s_part%d.csv", name, idx+1)
	}
	f, err := os.Create(filepath.Join(dir, filename))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.TitledCSV(f)
}
