package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// span is one call from the benchmark into a layer, timed by the
// benchmark's own code around the call.
type span struct {
	Name string `json:"name"`
	Rep  int    `json:"rep"`
	ID   int    `json:"id"`
	// Parent is the ID of the enclosing span, -1 for a root span.
	Parent int `json:"parent"`
	// Start and End are seconds since the repetition began.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps one repetition's spans in memory.
type tracer struct {
	rep   int
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(rep int) *tracer { return &tracer{rep: rep, t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns the
// function that closes it. Spans close in the reverse order they opened.
func (tr *tracer) begin(name string) (end func()) {
	s := span{Name: name, Rep: tr.rep, ID: len(tr.spans), Parent: -1, Start: time.Since(tr.t0).Seconds()}
	if n := len(tr.open); n > 0 {
		s.Parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, s)
	tr.open = append(tr.open, s.ID)
	return func() {
		tr.spans[s.ID].End = time.Since(tr.t0).Seconds()
		tr.open = tr.open[:len(tr.open)-1]
	}
}

// repResult is what one repetition measured; a child process prints it as
// one JSON line.
type repResult struct {
	Rep      int  `json:"rep"`
	Profiled bool `json:"profiled"`
	// SetupS is the wall time of setup: platform boot, dataset build and
	// schedule derivation.
	SetupS float64 `json:"setup_s"`
	// HostS, HostCPUS, AllocMB, GCCycles and Mallocs cover the measured
	// phase: from the end of setup to the last output check.
	HostS    float64 `json:"host_s"`
	HostCPUS float64 `json:"host_cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
	Mallocs  float64 `json:"mallocs"`
	// PeakRSSMB is the process's maximum resident set size.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// RefS is the geometric mean time of the reference computation around
	// the measured phase.
	RefS    float64  `json:"ref_s"`
	Outcome *outcome `json:"outcome,omitempty"`
	Spans   []span   `json:"spans"`
	// Layers counts CPU profile samples per layer (profiled repetitions).
	Layers map[string]int64 `json:"layers,omitempty"`
	Err    string           `json:"error,omitempty"`
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall                          time.Time
	cpuS                          float64
	maxRSSKB                      int64
	allocBytes, mallocs, gcCycles uint64
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		wall:       time.Now(),
		cpuS:       tv(ru.Utime) + tv(ru.Stime),
		maxRSSKB:   int64(ru.Maxrss),
		allocBytes: ms[0].Value.Uint64(),
		mallocs:    ms[1].Value.Uint64(),
		gcCycles:   ms[2].Value.Uint64(),
	}, nil
}

// runRep runs one repetition of w in this process: setup, then the
// measured phase, with the reference computation timed refs times on each
// side of it. With profile set, a CPU profile covers the measured phase
// and its samples are attributed to layers.
func runRep(w scenario, seed int64, scale float64, rep, refs int, profile bool) repResult {
	r := repResult{Rep: rep, Profiled: profile}
	out, err := measureRep(w, seed, scale, refs, &r)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Outcome = out
	return r
}

// setupRuns is how many times a repetition sets its workload up.
const setupRuns = 5

func measureRep(w scenario, seed int64, scale float64, refs int, r *repResult) (*outcome, error) {
	tr := newTracer(r.Rep)
	defer func() { r.Spans = tr.spans }()

	// Setup runs setupRuns times and setup_s is the median; the last setup
	// is the one measured, and only its spans are kept.
	var measure func() (*outcome, error)
	setups := make([]float64, setupRuns)
	for i := range setups {
		str := newTracer(r.Rep)
		if i == setupRuns-1 {
			str = tr
		}
		end := str.begin("setup")
		t0 := time.Now()
		m, err := w.setup(seed, scale, str)
		setups[i] = time.Since(t0).Seconds()
		end()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		measure = m
		// Collect setup's garbage now, so neither the next setup nor the
		// measured phase pays for it.
		runtime.GC()
	}
	r.SetupS = median(setups)

	refTimes := timeReference(refs)
	var prof bytes.Buffer
	if r.Profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	before, err := readUsage()
	if err != nil {
		return nil, err
	}
	end := tr.begin("measure")
	out, err := measure()
	end()
	after, uerr := readUsage()
	if r.Profiled {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if uerr != nil {
		return nil, uerr
	}
	if r.Profiled {
		if r.Layers, err = attributeProfile(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	r.RefS = geomean(append(refTimes, timeReference(refs)...))
	r.HostS = after.wall.Sub(before.wall).Seconds()
	r.HostCPUS = after.cpuS - before.cpuS
	r.AllocMB = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	r.Mallocs = float64(after.mallocs - before.mallocs)
	r.GCCycles = float64(after.gcCycles - before.gcCycles)
	r.PeakRSSMB = float64(after.maxRSSKB) / 1024
	return out, nil
}
