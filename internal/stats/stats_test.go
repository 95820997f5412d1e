package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramDarshanEdges(t *testing.T) {
	h := NewDarshanSizeHistogram()
	cases := map[int64]int{
		0: 0, 100: 0, 101: 1, 1024: 1, 1025: 2,
		10 * 1024: 2, 100 * 1024: 3, 1 << 20: 4, 1<<20 + 1: 5,
		4 << 20: 5, 10 << 20: 6, 100 << 20: 7, 1 << 30: 8, 2 << 30: 9,
	}
	for v, want := range cases {
		if got := h.BucketFor(v); got != want {
			t.Errorf("BucketFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramAddAndFractions(t *testing.T) {
	h := NewDarshanSizeHistogram()
	h.Add(0)
	h.Add(50)
	h.Add(1 << 20)
	h.Add(1 << 20)
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[4] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Fraction(0) != 0.5 {
		t.Fatalf("fraction = %v", h.Fraction(0))
	}
	if !strings.Contains(h.String(), "0-100") {
		t.Fatal("render missing labels")
	}
	empty := NewDarshanSizeHistogram()
	if empty.Fraction(0) != 0 {
		t.Fatal("empty fraction")
	}
}

// Property: histogram total equals number of Adds for any inputs.
func TestPropertyHistogramTotal(t *testing.T) {
	f := func(vals []int64) bool {
		h := NewDarshanSizeHistogram()
		for _, v := range vals {
			if v < 0 {
				v = -v
			}
			h.Add(v)
		}
		return h.Total() == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if p := Percentile(sorted, 0); p != 10 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(sorted, 100); p != 40 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(sorted, 50); p != 25 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile([]float64{7}, 95); p != 7 {
		t.Fatalf("single = %v", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty = %v", p)
	}
}

func TestMedianInt64(t *testing.T) {
	if m := MedianInt64([]int64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %d", m)
	}
	if m := MedianInt64(nil); m != 0 {
		t.Fatal("empty median")
	}
}

func TestMedianInt64EvenLengthInterpolates(t *testing.T) {
	// Regression: the even-length median used to return the upper middle
	// element (sorted[len/2]) while Percentile(sorted, 50) interpolated, so
	// the two reporting paths disagreed. Both must now agree.
	xs := []int64{40, 10, 20, 30}
	if m := MedianInt64(xs); m != 25 {
		t.Fatalf("even median = %d, want 25", m)
	}
	if m := MedianInt64([]int64{10, 20}); m != 15 {
		t.Fatalf("two-element median = %d, want 15", m)
	}
	// Agreement with the float percentile path on the same sample.
	sorted := []float64{10, 20, 30, 40}
	if p := Percentile(sorted, 50); p != 25 {
		t.Fatalf("percentile = %v, want 25", p)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "dstat"
	s.Add(0, 10)
	s.Add(1, 30)
	s.Add(2, 20)
	if s.MaxV() != 30 {
		t.Fatalf("max=%v", s.MaxV())
	}
	var empty Series
	if empty.MaxV() != 0 {
		t.Fatal("empty series stats")
	}
}

func TestRenderASCII(t *testing.T) {
	a := &Series{Name: "dstat"}
	b := &Series{Name: "tfdarshan"}
	a.Add(0, 12.5)
	a.Add(1, 13.5)
	b.Add(0, 12.0)
	out := RenderASCII(a, b)
	if !strings.Contains(out, "dstat") || !strings.Contains(out, "tfdarshan") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "12.50") {
		t.Fatalf("values missing:\n%s", out)
	}
	if !strings.Contains(out, "-") { // second row of b is missing
		t.Fatalf("missing-value marker absent:\n%s", out)
	}
	if out := RenderASCII(); !strings.Contains(out, "t(s)") {
		t.Fatal("empty render broken")
	}
}
