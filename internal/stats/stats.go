// Package stats provides the small statistical toolkit shared by the
// analysis and reporting layers: Darshan-edge histograms, summary
// statistics and time series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bucket histogram over int64 values with
// upper-inclusive edges, matching Darshan's size buckets.
type Histogram struct {
	// Edges are the inclusive upper bounds of all buckets but the last,
	// which is unbounded.
	Edges  []int64
	Labels []string
	Counts []int64
}

// DarshanSizeEdges are the upper-inclusive access-size bucket edges.
var DarshanSizeEdges = []int64{
	100, 1024, 10 * 1024, 100 * 1024, 1 << 20,
	4 << 20, 10 << 20, 100 << 20, 1 << 30,
}

// DarshanSizeLabels label the corresponding buckets (plus the open top).
var DarshanSizeLabels = []string{
	"0-100", "100-1K", "1K-10K", "10K-100K", "100K-1M",
	"1M-4M", "4M-10M", "10M-100M", "100M-1G", "1G+",
}

// NewDarshanSizeHistogram returns an empty histogram with Darshan's access
// size buckets.
func NewDarshanSizeHistogram() *Histogram {
	return &Histogram{
		Edges:  append([]int64(nil), DarshanSizeEdges...),
		Labels: append([]string(nil), DarshanSizeLabels...),
		Counts: make([]int64, len(DarshanSizeEdges)+1),
	}
}

// BucketFor returns the index of the bucket holding v.
func (h *Histogram) BucketFor(v int64) int {
	for i, e := range h.Edges {
		if v <= e {
			return i
		}
	}
	return len(h.Edges)
}

// Add counts v.
func (h *Histogram) Add(v int64) { h.Counts[h.BucketFor(v)]++ }

// Total returns the number of counted values.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Fraction returns bucket i's share of the total (0 when empty).
func (h *Histogram) Fraction(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(t)
}

// String renders the histogram as an ASCII bar chart.
func (h *Histogram) String() string {
	var b strings.Builder
	total := h.Total()
	for i, c := range h.Counts {
		label := fmt.Sprintf("bucket%d", i)
		if i < len(h.Labels) {
			label = h.Labels[i]
		}
		bar := ""
		if total > 0 {
			bar = strings.Repeat("#", int(40*c/total))
		}
		fmt.Fprintf(&b, "%10s %10d %s\n", label, c, bar)
	}
	return b.String()
}

// Summary holds order statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	P95    float64
	Stddev float64
}

// Summarize computes summary statistics (zero value for empty input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sq float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	for _, x := range sorted {
		sq += (x - mean) * (x - mean)
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Median: Percentile(sorted, 50),
		P95:    Percentile(sorted, 95),
		Stddev: math.Sqrt(sq / float64(len(sorted))),
	}
}

// Percentile returns the p-th percentile of a sorted sample using linear
// interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MedianInt64 returns the median of xs (0 when empty). Even-length
// samples interpolate between the two middle elements like
// Percentile(sorted, 50), truncated toward the lower middle when the
// midpoint is not an integer — the closest an int64 path can get to the
// float percentile, so the two reporting paths agree up to truncation.
func MedianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	lo, hi := sorted[mid-1], sorted[mid]
	return lo + (hi-lo)/2
}

// Point is one sample of a time series.
type Point struct {
	T float64 // seconds
	V float64
}

// Series is a named time series (dstat bandwidth, tf-Darshan bandwidth...).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// MaxV returns the maximum value (0 when empty).
func (s *Series) MaxV() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// RenderASCII draws series as a simple aligned table, one row per sample
// time of the first series (for terminal figure output).
func RenderASCII(series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s", "t(s)")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	if len(series) == 0 || len(series[0].Points) == 0 {
		return b.String()
	}
	n := len(series[0].Points)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%10.1f", series[0].Points[i].T)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " %14.2f", s.Points[i].V)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
