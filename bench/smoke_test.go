package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload at toy size, traced — which
// also runs the untraced prefix pass, every output check and every probe
// — inside the tier-1 budget. It guards the harness, not the numbers.
func TestSmokeEveryWorkload(t *testing.T) {
	for i, res := range toySweep() {
		w := workloads[i]
		if !res.correct() {
			t.Errorf("%s: %d of %d ops failed: %s", w.name, res.failed, res.attempted, strings.Join(res.problems, "; "))
			continue
		}
		if len(res.rec.spans) == 0 {
			t.Errorf("%s: traced pass recorded no span", w.name)
		}
		for _, name := range []string{"throughput_ops_s", "op_ms_p50", "alloc_kb_per_op", "live_heap_mb", "bytes_per_op", "setup_s", "driver.trace_overhead_ratio"} {
			if res.vals[name] <= 0 {
				t.Errorf("%s: %s reads %v", w.name, name, res.vals[name])
			}
		}
		for name := range res.vals {
			if !declared(name) {
				t.Errorf("%s: reports %s, which BENCHMARK.json does not declare", w.name, name)
			}
		}
		path := filepath.Join(t.TempDir(), w.name+".trace.json")
		if err := res.writeTrace(path, w, toySeed); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

const toySeed = 7

// toySweep runs the traced toy sweep once for every test that reads it.
var toySweep = sync.OnceValue(func() []*result {
	var out []*result
	for _, w := range workloads {
		out = append(out, execute(w, &env{seed: toySeed, sz: toySizes, stderr: io.Discard}, true))
	}
	return out
})

func declared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.Name == name {
				return true
			}
		}
	}
	return false
}

// TestEveryLayerMetricHasAWorkload holds the table to its promise: each
// per-layer metric is measured by at least one workload's traced run.
func TestEveryLayerMetricHasAWorkload(t *testing.T) {
	seen := make(map[string]bool)
	for _, res := range toySweep() {
		for name, val := range res.vals {
			if val != 0 {
				seen[name] = true
			}
		}
	}
	for _, m := range perLayer {
		// Zero is the healthy reading of these two at toy size.
		if !seen[m.Name] && m.Name != "peer.divergence" && m.Name != "driver.gc_pause_ms_total" {
			t.Errorf("no workload measures %s", m.Name)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which the
// regression driver reads, in step with the tables the harness prints
// from.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n harness %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n harness %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, harness {%s %s}", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// TestDriverFlags pins the two spellings of -trace.
func TestDriverFlags(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace", "0"}, []string{"--workload", "x", "--seed", "3", "--seconds", "10", "-trace=0"}},
		{[]string{"--trace", "1", "--seed", "3"}, []string{"-trace=1", "--seed", "3"}},
		{[]string{"-trace", "-seed", "3"}, []string{"-trace=1", "-seed", "3"}},
		{[]string{"-seed", "3", "-trace"}, []string{"-seed", "3", "-trace=1"}},
	} {
		if got := normalizeTraceFlag(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("normalizeTraceFlag(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestWatchdogDumpsAndReturns shows a parked op neither hangs the driver
// nor goes unreported.
func TestWatchdogDumpsAndReturns(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var dump bytes.Buffer
	err := guarded(20*time.Millisecond, &dump, "stuck op", func() error {
		<-release
		return nil
	})
	var hung errWatchdog
	if !errors.As(err, &hung) {
		t.Fatalf("guarded returned %v, want errWatchdog", err)
	}
	if !strings.Contains(dump.String(), "TestWatchdogDumpsAndReturns") {
		t.Errorf("goroutine dump does not show the parked op:\n%s", dump.String())
	}
	if err := guarded(time.Second, &dump, "quick op", func() error { return io.EOF }); err != io.EOF {
		t.Errorf("guarded returned %v, want the op's own error", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
