// Package metrics implements the evaluation metrics of §3 of the paper —
// success ratio of personal networks (§3.2.1), recall of top-k results
// (§3.2.2, provided by package topk), and average update rate under profile
// dynamics (§3.4.1) — plus the plain-text table/series rendering used by
// the experiment harness to print the paper's figures and tables.
//
// These are paper-evaluation metrics: protocol-quality measures computed
// from engine state against an offline oracle, reproduced as experiment
// outputs. Runtime telemetry — cycle/query counters, phase timings,
// /metrics scraping — is a different subsystem entirely; see internal/obs
// and the "Observability" section of ARCHITECTURE.md.
package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"p3q/internal/similarity"
	"p3q/internal/tagging"
)

// SuccessRatio measures the quality of a personal network against the ideal
// one computed offline (§3.2.1): the number of neighbours that are in the
// network "and should be", over the ideal network size.
//
// Ties are treated score-robustly: a present neighbour counts as good if
// its similarity score is at least the lowest score of the ideal network,
// since any such neighbour is an equally valid top-s choice. The count is
// capped at the ideal size so the ratio stays in [0, 1].
func SuccessRatio(memberScores map[tagging.UserID]int, ideal []similarity.Neighbour) float64 {
	if len(ideal) == 0 {
		return 1
	}
	minScore := ideal[len(ideal)-1].Score
	good := 0
	for _, sc := range memberScores {
		if sc >= minScore {
			good++
		}
	}
	if good > len(ideal) {
		good = len(ideal)
	}
	return float64(good) / float64(len(ideal))
}

// Replica describes one stored profile replica for update-rate accounting.
type Replica struct {
	Owner   tagging.UserID
	Version int // version of the stored snapshot
}

// UpdateRate computes one user's update rate (§3.4.1): among her stored
// replicas whose owners changed their profiles, the fraction that has been
// refreshed to at least the owner's post-change version. ok is false when
// no stored replica is subject to changes (the user is excluded from the
// average).
func UpdateRate(stored []Replica, changedVersion map[tagging.UserID]int) (rate float64, ok bool) {
	subject, updated := 0, 0
	for _, r := range stored {
		target, changed := changedVersion[r.Owner]
		if !changed {
			continue
		}
		subject++
		if r.Version >= target {
			updated++
		}
	}
	if subject == 0 {
		return 0, false
	}
	return float64(updated) / float64(subject), true
}

// Mean returns the arithmetic mean of the values (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table is a printable result table: the unit of output of every
// experiment (one per paper table or figure).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row. The number of cells should match the header.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// CSV renders the table as comma-separated values (header included, title
// omitted). Cells containing commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.Join(quoted, ","))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// TitledCSV renders the table as one CSV block: a "# <title>" comment line,
// then CSV. It is the block `p3qsim -csv` prints and `-out` writes per
// table, and the unit of the experiments' figure goldens.
func (t *Table) TitledCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	return t.CSV(w)
}

// F formats a float with the given precision (helper for table cells).
func F(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// I formats an int (helper for table cells).
func I(v int) string { return strconv.Itoa(v) }

// U formats a uint64 (helper for table cells).
func U(v uint64) string { return strconv.FormatUint(v, 10) }
