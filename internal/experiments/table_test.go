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
		Rows:   [][]string{{"a", "1"}, {"longer-name", "22"}},
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

func TestFormatters(t *testing.T) {
	if fixed(3.14159, 2) != "3.14" {
		t.Fatal("fixed")
	}
	if seconds(1500*time.Millisecond) != "1.5" {
		t.Fatal("seconds")
	}
	if percent(42.25) != "42.2%" && percent(42.25) != "42.3%" {
		t.Fatalf("percent = %s", percent(42.25))
	}
}
