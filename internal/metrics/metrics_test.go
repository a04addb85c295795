package metrics

import (
	"bytes"
	"strings"
	"testing"

	"p3q/internal/similarity"
	"p3q/internal/tagging"
)

func TestSuccessRatioPerfect(t *testing.T) {
	ideal := []similarity.Neighbour{{ID: 1, Score: 5}, {ID: 2, Score: 3}}
	members := map[tagging.UserID]int{1: 5, 2: 3}
	if r := SuccessRatio(members, ideal); r != 1 {
		t.Fatalf("ratio = %f, want 1", r)
	}
}

func TestSuccessRatioPartial(t *testing.T) {
	ideal := []similarity.Neighbour{{ID: 1, Score: 5}, {ID: 2, Score: 3}, {ID: 3, Score: 3}, {ID: 4, Score: 2}}
	members := map[tagging.UserID]int{1: 5, 9: 1} // 9's score below the cut
	if r := SuccessRatio(members, ideal); r != 0.25 {
		t.Fatalf("ratio = %f, want 0.25", r)
	}
}

func TestSuccessRatioTieRobust(t *testing.T) {
	// Members 7 and 8 both score 3, same as the ideal boundary: either is a
	// valid choice and must count as good.
	ideal := []similarity.Neighbour{{ID: 1, Score: 5}, {ID: 7, Score: 3}}
	members := map[tagging.UserID]int{1: 5, 8: 3}
	if r := SuccessRatio(members, ideal); r != 1 {
		t.Fatalf("ratio = %f, want 1 (tie at the boundary)", r)
	}
}

func TestSuccessRatioCapped(t *testing.T) {
	ideal := []similarity.Neighbour{{ID: 1, Score: 1}}
	members := map[tagging.UserID]int{1: 1, 2: 2, 3: 3}
	if r := SuccessRatio(members, ideal); r != 1 {
		t.Fatalf("ratio = %f, want capped at 1", r)
	}
}

func TestSuccessRatioEmptyIdeal(t *testing.T) {
	if r := SuccessRatio(nil, nil); r != 1 {
		t.Fatalf("ratio = %f, want 1 for empty ideal", r)
	}
}

func TestSuccessRatioEmptyMembers(t *testing.T) {
	ideal := []similarity.Neighbour{{ID: 1, Score: 5}}
	if r := SuccessRatio(map[tagging.UserID]int{}, ideal); r != 0 {
		t.Fatalf("ratio = %f, want 0", r)
	}
}

func TestUpdateRate(t *testing.T) {
	changed := map[tagging.UserID]int{1: 10, 2: 20}
	stored := []Replica{
		{Owner: 1, Version: 10}, // updated
		{Owner: 2, Version: 15}, // stale
		{Owner: 3, Version: 99}, // not subject to change
	}
	rate, ok := UpdateRate(stored, changed)
	if !ok {
		t.Fatal("UpdateRate reported no subjects")
	}
	if rate != 0.5 {
		t.Fatalf("rate = %f, want 0.5", rate)
	}
}

func TestUpdateRateNoSubjects(t *testing.T) {
	if _, ok := UpdateRate([]Replica{{Owner: 5, Version: 1}}, map[tagging.UserID]int{9: 2}); ok {
		t.Fatal("UpdateRate should report no subjects")
	}
	if _, ok := UpdateRate(nil, nil); ok {
		t.Fatal("UpdateRate on empty input should report no subjects")
	}
}

func TestUpdateRateNewerThanTarget(t *testing.T) {
	// A replica refreshed past the change (further changes) still counts.
	rate, ok := UpdateRate([]Replica{{Owner: 1, Version: 99}}, map[tagging.UserID]int{1: 10})
	if !ok || rate != 1 {
		t.Fatalf("rate = %f ok=%v, want 1 true", rate, ok)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %f", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean of empty = %f, want 0", m)
	}
}

func TestTableFprint(t *testing.T) {
	tb := NewTable("My Title", "cycle", "recall")
	tb.Add("0", "0.42")
	tb.Add("1", "0.90")
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"My Title", "cycle", "recall", "0.42", "0.90"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.Add("1", "x,y")
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a,b") {
		t.Fatalf("CSV header missing: %s", out)
	}
	if !strings.Contains(out, "\"x,y\"") {
		t.Fatalf("CSV quoting missing: %s", out)
	}
	if strings.Contains(out, "ignored") {
		t.Fatal("CSV should omit the title")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.2345, 2) != "1.23" {
		t.Fatalf("F = %s", F(1.2345, 2))
	}
	if I(42) != "42" {
		t.Fatalf("I = %s", I(42))
	}
	if U(7) != "7" {
		t.Fatalf("U = %s", U(7))
	}
}
