package main

import "sort"

// summary is how every timed or per-op value travels: its median, its
// quartiles, its extremes and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := sorted(v)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// spread is the inter-quartile range as a share of the median — the
// run-to-run spread the bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(sorted(v), 0.5)
}

// quantile interpolates like Python's statistics.quantiles (the exclusive
// method: position p·(n+1), clamped), so spreads printed here match the ones
// the driver computes.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	i := int(pos)
	switch {
	case i < 1:
		return s[0]
	case i >= n:
		return s[n-1]
	}
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}
