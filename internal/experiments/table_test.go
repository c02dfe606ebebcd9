package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTableRenderAligned(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Rows:   [][]Cell{{text("a"), count(1)}, {text("longer-name"), count(22)}},
	}
	out := tb.Render()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Header and separator widths line up.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
}

// TestCellFormats holds each cell constructor to the exact bytes Render
// prints and Write writes for it. A halfway value rounds to even.
func TestCellFormats(t *testing.T) {
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{text("order-preserving (§6)"), "order-preserving (§6)"},
		{num(3.14159, 2), "3.14"},
		{num(0.5, 0), "0"},
		{secs(1500 * time.Millisecond), "1.5"},
		{pct(42.25), "42.2%"},
		{count(48), "48"},
		{count(int64(45000)), "45000"},
	} {
		if got := tc.cell.String(); got != tc.want {
			t.Errorf("%+v prints %q, want %q", tc.cell, got, tc.want)
		}
	}
}
