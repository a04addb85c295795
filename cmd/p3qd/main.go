// Command p3qd runs one peer daemon of a P3Q cluster: a deterministic
// engine replica serving the wire protocol over TCP for the contiguous
// node range it hosts. Daemon 0 is the lead — it drives the cluster's
// lockstep lazy/eager cycles on real timers; every other daemon follows
// the lead's step broadcasts.
//
// Every daemon of a cluster must be launched with the same -addrs,
// -users and -seed: the replicas are only interchangeable when the
// whole deterministic universe matches, and the handshake rejects any
// peer whose checkpoint params block or profile section sums differ.
//
// A three-daemon cluster on loopback:
//
//	p3qd -index 0 -addrs localhost:7701,localhost:7702,localhost:7703 &
//	p3qd -index 1 -addrs localhost:7701,localhost:7702,localhost:7703 &
//	p3qd -index 2 -addrs localhost:7701,localhost:7702,localhost:7703 &
//
// then query it with p3qctl (any daemon answers status and stats from
// its own replica; members relay submissions to the lead):
//
//	p3qctl -addr localhost:7702 submit -querier 3 -tags 1,4
//	p3qctl -addr localhost:7702 wait -qid 1
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p3q/internal/core"
	"p3q/internal/peer"
	"p3q/internal/trace"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p3qd: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		index      = flag.Int("index", 0, "this daemon's position in -addrs; daemon 0 is the lead")
		addrs      = flag.String("addrs", "", "comma-separated host:port of every daemon, in index order")
		users      = flag.Int("users", 60, "population size; all daemons must agree")
		seed       = flag.Uint64("seed", 1, "deterministic seed; all daemons must agree")
		warmup     = flag.Int("warmup", 8, "lead only: lazy cycles run before the timers start")
		eagerEvery = flag.Duration("eager-every", 20*time.Millisecond, "lead only: eager cycle cadence while queries are in flight")
		lazyEvery  = flag.Duration("lazy-every", 0, "lead only: background lazy cycle cadence (0 = none)")
		connectFor = flag.Duration("connect-timeout", 10*time.Second, "how long to wait for peers to come up")
		httpAddr   = flag.String("http", "", "serve Prometheus /metrics and /debug/pprof on this host:port (empty = off)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		die("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if *addrs == "" {
		die("-addrs is required")
	}
	list := strings.Split(*addrs, ",")

	gen := trace.DefaultGenParams(*users)
	ecfg := core.DefaultConfig()
	ecfg.Seed = *seed

	d, err := peer.New(peer.Config{
		Index:          *index,
		Addrs:          list,
		Gen:            gen,
		Engine:         ecfg,
		ConnectTimeout: *connectFor,
	}, peer.TCP{})
	if err != nil {
		die("%v", err)
	}
	if err := d.Start(); err != nil {
		die("%v", err)
	}
	fmt.Printf("p3qd: daemon %d/%d serving %s\n", *index, len(list), list[*index])
	if *httpAddr != "" {
		taddr, err := d.StartHTTP(*httpAddr)
		if err != nil {
			d.Close()
			die("%v", err)
		}
		fmt.Printf("p3qd: daemon %d telemetry on http://%s/metrics\n", *index, taddr)
	}
	if err := d.Connect(); err != nil {
		die("%v", err)
	}
	fmt.Printf("p3qd: daemon %d connected to the cluster\n", *index)

	errc := make(chan error, 1)
	if *index == 0 {
		go func() { errc <- d.RunLead(*warmup, *eagerEvery, *lazyEvery) }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case <-d.ShutdownRequested():
		fmt.Printf("p3qd: daemon %d shutting down on wire request\n", *index)
	case s := <-sigc:
		fmt.Printf("p3qd: daemon %d shutting down on %v\n", *index, s)
	case err := <-errc:
		if err != nil {
			d.Close()
			die("lead driver: %v", err)
		}
	}
	d.Close()
}
