package metrics

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Prometheus text-format export: time series become gauge metrics (last
// sampled value), and a log-bucket histogram (the step-time SLO view)
// becomes a histogram metric with cumulative buckets. Everything is
// emitted in a caller-controlled deterministic order with integer-exact
// counts, so a snapshot of a deterministic run is itself reproducible.

// promName sanitizes a series name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("minato_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the series, in the order given, and the histogram
// h under histName in the Prometheus text exposition format. Each gauge
// reports its most recent sample; empty series and an empty or nil h are
// left out.
func WritePrometheus(w io.Writer, series []*TimeSeries, histName string, h *LogHist) error {
	bw := bufio.NewWriter(w)
	for _, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		name := promName(s.Name)
		last := s.Points[len(s.Points)-1]
		bw.WriteString("# TYPE " + name + " gauge\n")
		bw.WriteString(name + " " + promFloat(last.V) + "\n")
		bw.WriteString("# TYPE " + name + "_samples_total counter\n")
		bw.WriteString(name + "_samples_total " + strconv.Itoa(len(s.Points)) + "\n")
	}
	if h != nil && h.N() > 0 {
		name := promName(histName)
		bw.WriteString("# TYPE " + name + " histogram\n")
		cum := int64(0)
		h.ForEachBucket(func(upper float64, count int64) {
			cum += count
			bw.WriteString(name + `_bucket{le="` + promFloat(upper) + `"} ` +
				strconv.FormatInt(cum, 10) + "\n")
		})
		bw.WriteString(name + `_bucket{le="+Inf"} ` + strconv.FormatInt(h.N(), 10) + "\n")
		bw.WriteString(name + "_sum " + promFloat(h.Sum()) + "\n")
		bw.WriteString(name + "_count " + strconv.FormatInt(h.N(), 10) + "\n")
	}
	return bw.Flush()
}

// WriteCSV writes header+rows to dir/name.csv, creating dir as needed. A
// file that fails to close is an error: its bytes may not be on disk.
func WriteCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err = w.Write(header); err == nil {
		err = w.WriteAll(rows) // flushes and reports the flush error
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteSeriesCSV writes one or more aligned-by-row time series to
// dir/name.csv with a time column in seconds.
func WriteSeriesCSV(dir, name string, series ...*TimeSeries) error {
	header := []string{"t_seconds"}
	maxLen := 0
	for _, ts := range series {
		header = append(header, ts.Name)
		if len(ts.Points) > maxLen {
			maxLen = len(ts.Points)
		}
	}
	rows := make([][]string, 0, maxLen)
	for i := 0; i < maxLen; i++ {
		t := "" // the first series long enough stamps the row
		for _, ts := range series {
			if i < len(ts.Points) {
				t = fmt.Sprintf("%.1f", ts.Points[i].T.Seconds())
				break
			}
		}
		row := append(make([]string, 0, len(header)), t)
		for _, ts := range series {
			if i < len(ts.Points) {
				row = append(row, fmt.Sprintf("%.2f", ts.Points[i].V))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return WriteCSV(dir, name, header, rows)
}
