package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric: its unit, which direction is better and, for
// an end-to-end metric, the share of the parent's median by which it may
// get worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// profiling off. BENCHMARK.json repeats them; a test keeps the two equal.
// The bounds are as wide as a shared 2-vCPU VM needs: over ten-run sets
// the times' interquartile spread reached 7.8% and peak RSS's 5%, and a
// bound should be three times the spread. Allocation repeats to 0.01%.
var endToEnd = []metricDef{
	{"host_s", "s", "lower", 0.25},
	{"host_cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_ops_per_s", "ops/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// read the same here as in any script that checks them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// Verdicts of compare.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// judgement is one metric's comparison of two sets of runs.
type judgement struct {
	metric         metricDef
	oldMed, newMed float64
	oldQ1, oldQ3   float64
	newQ1, newQ3   float64
	wins, pairs    int
	verdict        string
}

// judge compares a parent's runs with a change's, paired by index:
//   - a gain needs the change to win at least 9 of 10 pairs (ties count
//     for neither) and the medians to differ by more than the parent's
//     interquartile range;
//   - a regression is a median worse than the parent's by more than the
//     metric's bound;
//   - a metric whose spread on either side is wider than the bound is
//     unresolved, unless every run of the change beats every run of the
//     parent.
func judge(m metricDef, old, cur []float64) judgement {
	j := judgement{metric: m, oldMed: median(old), newMed: median(cur), pairs: min(len(old), len(cur))}
	j.oldQ1, j.oldQ3 = quartiles(old)
	j.newQ1, j.newQ3 = quartiles(cur)
	better := func(a, b float64) bool { // a is better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < j.pairs; i++ {
		if better(cur[i], old[i]) {
			j.wins++
		}
	}
	worse := 0.0 // how much worse the change's median is, as a share of the parent's
	if j.oldMed != 0 {
		worse = (j.newMed - j.oldMed) / math.Abs(j.oldMed)
		if m.Better == "higher" {
			worse = -worse
		}
	}
	oldSorted, curSorted := sorted(old), sorted(cur)
	allBetter := len(old) > 0 && len(cur) > 0
	if allBetter {
		if m.Better == "higher" {
			allBetter = curSorted[0] > oldSorted[len(oldSorted)-1]
		} else {
			allBetter = curSorted[len(curSorted)-1] < oldSorted[0]
		}
	}
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && better(j.newMed, j.oldMed) &&
		math.Abs(j.newMed-j.oldMed) > j.oldQ3-j.oldQ1:
		j.verdict = verdictGain
	case worse > m.Bound:
		j.verdict = verdictRegression
	case (spread(old) > m.Bound || spread(cur) > m.Bound) && !allBetter:
		j.verdict = verdictUnresolved
	default:
		j.verdict = verdictUnchanged
	}
	return j
}

// compareRuns judges every end-to-end metric found in both sets of run
// results and prints one row each. It reports whether any regressed.
func compareRuns(w io.Writer, old, cur []runOutput) (regressed bool, err error) {
	var js []judgement
	for _, m := range endToEnd {
		if ov, nv := metricValues(old, m.Name), metricValues(cur, m.Name); len(ov) > 0 && len(nv) > 0 {
			js = append(js, judge(m, ov, nv))
		}
	}
	if len(js) == 0 {
		return false, fmt.Errorf("no end-to-end metric appears on both sides")
	}
	fmt.Fprintf(w, "%-14s %-6s %34s %34s %8s %7s  %s\n",
		"metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "delta", "wins", "verdict")
	for _, j := range js {
		delta := 0.0
		if j.oldMed != 0 {
			delta = (j.newMed - j.oldMed) / math.Abs(j.oldMed) * 100
		}
		fmt.Fprintf(w, "%-14s %-6s %34s %34s %+7.2f%% %3d/%-3d  %s\n",
			j.metric.Name, j.metric.Unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", j.oldMed, j.oldQ1, j.oldQ3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", j.newMed, j.newQ1, j.newQ3),
			delta, j.wins, j.pairs, j.verdict)
		regressed = regressed || j.verdict == verdictRegression
	}
	return regressed, nil
}

func metricValues(runs []runOutput, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
