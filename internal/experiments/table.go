package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/minatoloader/minato/internal/metrics"
)

// Table is a titled grid of cells: how every reproduced table and figure
// prints, and what its CSV holds.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render returns the table as aligned text.
func (t Table) Render() string {
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
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// WriteCSV writes the table to dir/name.csv.
func (t Table) WriteCSV(dir, name string) error {
	return metrics.WriteCSV(dir, name, t.Header, t.Rows)
}

// fixed formats a float with the given precision.
func fixed(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// seconds formats a duration as seconds with one decimal.
func seconds(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }

// percent formats a percentage with one decimal.
func percent(v float64) string { return fmt.Sprintf("%.1f%%", v) }
