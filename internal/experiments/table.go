package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Table is a titled grid of cells: how every reproduced table and figure
// prints, and what its CSV file, File.csv, holds.
type Table struct {
	Title  string
	File   string
	Header []string
	Rows   [][]Cell
}

// Cell is one entry of a Table: text, or a number Value that prints with Prec
// decimals and then Unit ("" or "%"). Code that wants a number reads Value.
type Cell struct {
	Text  string
	Value float64
	Prec  int
	Unit  string
	num   bool
}

// String is the cell as Render prints it and Write writes it.
func (c Cell) String() string {
	if !c.num {
		return c.Text
	}
	return strconv.FormatFloat(c.Value, 'f', c.Prec, 64) + c.Unit
}

func text(s string) Cell            { return Cell{Text: s} }
func num(v float64, prec int) Cell  { return Cell{Value: v, Prec: prec, num: true} }
func secs(d time.Duration) Cell     { return num(d.Seconds(), 1) }
func pct(v float64) Cell            { return Cell{Value: v, Prec: 1, Unit: "%", num: true} }
func count[N int | int64](n N) Cell { return num(float64(n), 0) }

// formatted returns t's rows as text: the one place Render and Write take
// their cells' strings from.
func (t Table) formatted() [][]string {
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		for _, c := range row {
			rows[i] = append(rows[i], c.String())
		}
	}
	return rows
}

// Render returns the table as aligned text.
func (t Table) Render() string {
	rows := append([][]string{t.Header, nil}, t.formatted()...) // nil: the rule under the header
	widths := make([]int, len(t.Header))
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	rows[1] = make([]string, len(widths))
	for i, w := range widths {
		rows[1][i] = strings.Repeat("-", w)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
