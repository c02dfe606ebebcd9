package metrics

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	series := []*TimeSeries{
		{Name: "gpu", Points: []Point{{T: time.Second, V: 50}, {T: 2 * time.Second, V: 92.5}}},
		{Name: "empty"},
		{Name: "minato workers!", Points: []Point{{T: time.Second, V: 3}}},
	}
	h := NewLogHist()
	h.Add(0.001)
	h.Add(0.001)
	h.Add(0.5)

	var b strings.Builder
	if err := WritePrometheus(&b, series, "step_seconds", h); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE minato_gpu gauge\nminato_gpu 92.5\n",
		"minato_gpu_samples_total 2\n",
		"minato_minato_workers_ 3\n",
		"# TYPE minato_step_seconds histogram\n",
		`minato_step_seconds_bucket{le="+Inf"} 3`,
		"minato_step_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "minato_empty") {
		t.Fatalf("empty series exported:\n%s", out)
	}
	// Cumulative buckets must be nondecreasing and end at the count.
	if !strings.Contains(out, "minato_step_seconds_sum 0.502") {
		t.Fatalf("histogram sum wrong:\n%s", out)
	}
	// Deterministic: a second write produces identical bytes.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, series, "step_seconds", h); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("export not deterministic")
	}
	// An empty or absent histogram is left out.
	for _, idle := range []*LogHist{NewLogHist(), nil} {
		var b3 strings.Builder
		if err := WritePrometheus(&b3, nil, "idle", idle); err != nil {
			t.Fatal(err)
		}
		if b3.Len() != 0 {
			t.Fatalf("empty histogram exported:\n%s", b3.String())
		}
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	err := WriteCSV(dir, "x", []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != "a" || rows[2][1] != "4" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	dir := t.TempDir()
	a := &TimeSeries{Name: "cpu"}
	b := &TimeSeries{Name: "gpu"}
	for i := 0; i < 3; i++ {
		a.Append(time.Duration(i)*time.Second, float64(i))
		b.Append(time.Duration(i)*time.Second, float64(10*i))
	}
	if err := WriteSeriesCSV(dir, "usage", a, b); err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(filepath.Join(dir, "usage.csv"))
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1] != "cpu" || rows[0][2] != "gpu" {
		t.Fatalf("header = %v", rows[0])
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
}
