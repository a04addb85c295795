package e2e

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"p3q/internal/trace"
)

// scrape fetches one telemetry page from a daemon's HTTP endpoint.
func scrape(t *testing.T, url string) string {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			_ = cerr // body fully read; close failure is harmless here
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(body)
}

// metricValue extracts one un-labelled sample from an exposition page.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("metric %s missing from page:\n%s", name, page)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// TestSmokeClusterMetrics is the telemetry smoke tier: every daemon of a
// three-daemon cluster serves a scrapeable Prometheus /metrics page with
// live cycle counters, and the extended stats response carries the
// phase timings and per-plane wire split.
func TestSmokeClusterMetrics(t *testing.T) {
	c := StartCluster(t, 3, 60, 11)
	urls := make([]string, len(c.Daemons))
	for i, d := range c.Daemons {
		addr, err := d.StartHTTP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("daemon %d telemetry listener: %v", i, err)
		}
		urls[i] = fmt.Sprintf("http://%s", addr)
	}

	if err := c.Lead().RunLazyCycles(6); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	ds := trace.Generate(c.Gen)
	q := trace.GenerateQueries(ds, 3)[0]
	cl := c.Client(t, 1)
	if _, err := cl.Submit(q.Querier, q.Tags); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := c.Lead().RunEagerCycle(); err != nil {
			t.Fatalf("eager cycle %d: %v", i, err)
		}
		if c.Lead().AllQueriesDone() {
			break
		}
	}

	for i, url := range urls {
		page := scrape(t, url+"/metrics")
		if got := metricValue(t, page, "p3q_lazy_cycles"); got != 6 {
			t.Errorf("daemon %d: p3q_lazy_cycles = %v, want 6", i, got)
		}
		if got := metricValue(t, page, "p3q_eager_cycles"); got == 0 {
			t.Errorf("daemon %d: p3q_eager_cycles = 0, want non-zero", i)
		}
		if got := metricValue(t, page, "p3q_daemon_index"); got != float64(i) {
			t.Errorf("daemon %d: p3q_daemon_index = %v", i, got)
		}
		if got := metricValue(t, page, "p3q_divergence_total"); got != 0 {
			t.Errorf("daemon %d: p3q_divergence_total = %v, want 0", i, got)
		}
		// Every daemon speaks on the wire, so at least one plane series
		// must be live, and the registry's host plane must have samples.
		if m := regexp.MustCompile(`(?m)^p3q_wire_bytes_total\{plane="[a-z]+"\} [1-9]`).FindString(page); m == "" {
			t.Errorf("daemon %d: all wire planes report zero bytes", i)
		}
		if m := regexp.MustCompile(`(?m)^p3q_query_events_total\{kind="issued"\} 1$`).FindString(page); m == "" {
			t.Errorf("daemon %d: issued-query event counter is not 1", i)
		}
		if got := metricValue(t, page, `p3q_phase_duration_seconds_count{phase="plan"}`); got == 0 {
			t.Errorf("daemon %d: no plan-phase samples", i)
		}
		// pprof rides on the same mux.
		if idx := scrape(t, url+"/debug/pprof/"); idx == "" {
			t.Errorf("daemon %d: empty pprof index", i)
		}
	}

	// The richer stats message agrees with the scrape. The lead sends each
	// member one ctrl frame per cycle (Step) and per query (QueryIssue);
	// members send none.
	for i := range c.Daemons {
		st, err := c.Client(t, i).Stats()
		if err != nil {
			t.Fatalf("stats from daemon %d: %v", i, err)
		}
		var wantCtrl uint64
		if i == 0 {
			wantCtrl = uint64(len(c.Daemons)-1) * (st.LazyCycles + st.EagerCycles + 1)
		}
		if st.Ctrl.Msgs != wantCtrl {
			t.Errorf("daemon %d: %d ctrl frames after %d lazy and %d eager cycles and 1 query, want %d",
				i, st.Ctrl.Msgs, st.LazyCycles, st.EagerCycles, wantCtrl)
		}
		if st.PlanNanos == 0 || st.CommitNanos == 0 {
			t.Errorf("daemon %d: phase timings empty (plan=%d commit=%d)", i, st.PlanNanos, st.CommitNanos)
		}
		planeSum := st.Data.Bytes + st.Ctrl.Bytes + st.Gateway.Bytes + st.Served.Bytes
		if planeSum != st.WireBytes {
			t.Errorf("daemon %d: plane bytes sum %d != total %d", i, planeSum, st.WireBytes)
		}
		if st.Divergence != 0 {
			t.Errorf("daemon %d: divergence %d", i, st.Divergence)
		}
	}
	c.RequireNoDivergence(t)
}
