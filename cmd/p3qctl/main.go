// Command p3qctl is the thin gateway CLI for a running p3qd cluster. It
// dials any one daemon (members relay submissions to the lead; status and
// stats are answered locally) and speaks the daemons' own wire protocol.
//
// Usage:
//
//	p3qctl -addr host:port submit -querier N -tags 1,2,3
//	p3qctl -addr host:port status -qid N
//	p3qctl -addr host:port wait -qid N [-timeout 30s]
//	p3qctl -addr host:port stats
//	p3qctl -addr host:port shutdown
//
// Output is line-oriented "key value" pairs, stable enough to grep in
// scripts and the e2e test tier.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"p3q/internal/peer"
	"p3q/internal/tagging"
	"p3q/internal/wire"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p3qctl: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var addr string
	flag.StringVar(&addr, "addr", "", "host:port of any daemon in the cluster")
	flag.Parse()
	if addr == "" {
		die("-addr is required")
	}
	if flag.NArg() == 0 {
		die("missing command: submit, status, wait, stats or shutdown")
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]

	cl, err := peer.DialClient(peer.TCP{}, addr)
	if err != nil {
		die("%v", err)
	}
	defer cl.Close()

	switch cmd {
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		querier := fs.Uint64("querier", 0, "querying node id")
		tags := fs.String("tags", "", "comma-separated tag ids")
		parseArgs(fs, rest)
		qid, err := cl.Submit(tagging.UserID(*querier), parseTags(*tags))
		if err != nil {
			die("submit: %v", err)
		}
		fmt.Printf("qid %d\n", qid)

	case "status":
		fs := flag.NewFlagSet("status", flag.ExitOnError)
		qid := fs.Uint64("qid", 0, "query id from submit")
		parseArgs(fs, rest)
		st, err := cl.Status(*qid)
		if err != nil {
			die("status: %v", err)
		}
		printStatus(st)

	case "wait":
		fs := flag.NewFlagSet("wait", flag.ExitOnError)
		qid := fs.Uint64("qid", 0, "query id from submit")
		timeout := fs.Duration("timeout", 30*time.Second, "give up after this long")
		parseArgs(fs, rest)
		deadline := time.Now().Add(*timeout)
		for {
			st, err := cl.Status(*qid)
			if err != nil {
				die("wait: %v", err)
			}
			if !st.Known {
				die("wait: the cluster does not know query %d", *qid)
			}
			if st.Done {
				printStatus(st)
				return
			}
			if time.Now().After(deadline) {
				die("wait: query %d not done after %v", *qid, *timeout)
			}
			time.Sleep(10 * time.Millisecond)
		}

	case "stats":
		st, err := cl.Stats()
		if err != nil {
			die("stats: %v", err)
		}
		fmt.Printf("index %d\n", st.Index)
		fmt.Printf("lazy_cycles %d\n", st.LazyCycles)
		fmt.Printf("eager_cycles %d\n", st.EagerCycles)
		fmt.Printf("divergence %d\n", st.Divergence)
		fmt.Printf("frozen_events %d\n", st.FrozenEvents)
		fmt.Printf("pending_events %d\n", st.PendingEvents)
		fmt.Printf("plan_ns %d\n", st.PlanNanos)
		fmt.Printf("commit_ns %d\n", st.CommitNanos)
		fmt.Printf("commit_skew_max_ns %d\n", st.SkewMaxNanos)
		fmt.Printf("wire_msgs %d\n", st.WireMsgs)
		fmt.Printf("wire_bytes %d\n", st.WireBytes)
		fmt.Printf("wire_plane data msgs %d bytes %d\n", st.Data.Msgs, st.Data.Bytes)
		fmt.Printf("wire_plane ctrl msgs %d bytes %d\n", st.Ctrl.Msgs, st.Ctrl.Bytes)
		fmt.Printf("wire_plane gateway msgs %d bytes %d\n", st.Gateway.Msgs, st.Gateway.Bytes)
		fmt.Printf("wire_plane served msgs %d bytes %d\n", st.Served.Msgs, st.Served.Bytes)
		for _, q := range st.Queries {
			fmt.Printf("query %d done %v bytes_forwarded %d bytes_returned %d bytes_partial %d bytes_maintenance %d\n",
				q.Qid, q.Done, q.Forwarded, q.Returned, q.PartialResults, q.Maintenance)
		}

	case "shutdown":
		if err := cl.Shutdown(); err != nil {
			die("shutdown: %v", err)
		}
		fmt.Println("ok")

	default:
		die("unknown command %q: want submit, status, wait, stats or shutdown", cmd)
	}
}

func parseArgs(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		die("%v", err) // unreachable with ExitOnError; belt and braces
	}
	if fs.NArg() != 0 {
		die("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
}

func parseTags(s string) []tagging.TagID {
	if s == "" {
		return nil
	}
	var tags []tagging.TagID
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			die("bad tag %q: %v", part, err)
		}
		tags = append(tags, tagging.TagID(n))
	}
	return tags
}

func printStatus(st *wire.QueryStatusResp) {
	fmt.Printf("known %v\n", st.Known)
	fmt.Printf("done %v\n", st.Done)
	fmt.Printf("cycles %d\n", st.Cycles)
	fmt.Printf("used %d\n", st.Used)
	fmt.Printf("needed %d\n", st.Needed)
	fmt.Printf("bytes_forwarded %d\n", st.Forwarded)
	fmt.Printf("bytes_returned %d\n", st.Returned)
	fmt.Printf("bytes_partial %d\n", st.PartialResults)
	fmt.Printf("bytes_maintenance %d\n", st.Maintenance)
	for _, e := range st.Results {
		fmt.Printf("result item %d score %d\n", e.Item, e.Score)
	}
}
