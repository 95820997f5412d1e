package profiler

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

func run(t *testing.T, fn func(th *sim.Thread)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("main", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceMeRecordsOnlyWhenActive(t *testing.T) {
	r := NewTraceMeRecorder()
	run(t, func(th *sim.Thread) {
		tm := r.Begin(th, "ignored")
		th.Sleep(sim.Millisecond)
		tm.End(th)
		r.Start()
		tm = r.Begin(th, "kept")
		th.Sleep(sim.Millisecond)
		tm.End(th)
		evs := slices.Concat(r.StopAndCollect()...)
		if len(evs) != 1 || evs[0].Name != "kept" {
			t.Fatalf("events = %+v", evs)
		}
		if evs[0].EndNs-evs[0].StartNs < int64(sim.Millisecond) {
			t.Fatal("duration lost")
		}
	})
}

func TestTraceMeChargesCPUOnlyWhenActive(t *testing.T) {
	r := NewTraceMeRecorder()
	var inactive, active int64
	run(t, func(th *sim.Thread) {
		t0 := th.Now()
		for i := 0; i < 100; i++ {
			tm := r.Begin(th, "x")
			tm.End(th)
		}
		inactive = th.Now() - t0
		r.Start()
		t0 = th.Now()
		for i := 0; i < 100; i++ {
			tm := r.Begin(th, "x")
			tm.End(th)
		}
		active = th.Now() - t0
	})
	if inactive != 0 {
		t.Fatalf("inactive tracing cost %dns", inactive)
	}
	if active != 100*traceMeEventCPU {
		t.Fatalf("active tracing cost %dns", active)
	}
}

func TestSessionLifecycle(t *testing.T) {
	p := New()
	run(t, func(th *sim.Thread) {
		if _, err := p.Stop(th); !errors.Is(err, ErrNoSession) {
			t.Fatalf("stop without start = %v", err)
		}
		s, err := p.Start(th)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Start(th); !errors.Is(err, ErrSessionActive) {
			t.Fatalf("double start = %v", err)
		}
		tm := p.Recorder().Begin(th, "op")
		th.Sleep(2 * sim.Millisecond)
		tm.End(th)
		space, err := p.Stop(th)
		if err != nil {
			t.Fatal(err)
		}
		if s.StopNs <= s.StartNs {
			t.Fatal("session window empty")
		}
		host := space.FindPlane(HostPlaneName)
		if host == nil || len(host.Lines) != 1 || len(host.Lines[0].Events) != 1 {
			t.Fatalf("host plane = %+v", host)
		}
		if host.Lines[0].Events[0].Name != "op" {
			t.Fatal("event name lost")
		}
		if p.Sessions != 1 {
			t.Fatalf("sessions = %d", p.Sessions)
		}
	})
}

func TestRepeatedSessionsIndependent(t *testing.T) {
	p := New()
	run(t, func(th *sim.Thread) {
		for i := 0; i < 3; i++ {
			if _, err := p.Start(th); err != nil {
				t.Fatal(err)
			}
			tm := p.Recorder().Begin(th, "op")
			tm.End(th)
			space, err := p.Stop(th)
			if err != nil {
				t.Fatal(err)
			}
			if got := space.TotalEvents(); got != 1 {
				t.Fatalf("session %d events = %d, want 1 (leak across sessions)", i, got)
			}
		}
	})
}

type fakeTracer struct {
	name             string
	started, stopped bool
	collected        bool
}

func (f *fakeTracer) Name() string              { return f.name }
func (f *fakeTracer) Start(t *sim.Thread) error { f.started = true; return nil }
func (f *fakeTracer) Stop(t *sim.Thread) error  { f.stopped = true; return nil }
func (f *fakeTracer) CollectData(t *sim.Thread, s *XSpace) error {
	f.collected = true
	s.Plane("/custom").SetStat("k", "v")
	return nil
}

func TestCustomTracerPluggability(t *testing.T) {
	p := New()
	var ft *fakeTracer
	p.RegisterTracer(func() Tracer {
		ft = &fakeTracer{name: "darshan"}
		return ft
	})
	run(t, func(th *sim.Thread) {
		s, err := p.Start(th)
		if err != nil {
			t.Fatal(err)
		}
		space, err := p.Stop(th)
		if err != nil {
			t.Fatal(err)
		}
		if !ft.started || !ft.stopped || !ft.collected {
			t.Fatalf("tracer lifecycle incomplete: %+v", ft)
		}
		if space.FindPlane("/custom") == nil {
			t.Fatal("custom plane missing")
		}
		if len(s.Tracers()) != 2 { // host + custom
			t.Fatalf("tracers = %d", len(s.Tracers()))
		}
	})
}

func TestXPlaneLineAndStats(t *testing.T) {
	var s XSpace
	p := s.Plane("/p")
	l := p.Line(7, "file-a")
	l.Events = append(l.Events, XEvent{Name: "read", StartNs: 1, DurNs: 2})
	if s.Plane("/p") != p {
		t.Fatal("Plane not idempotent")
	}
	if p.Line(7, "other") != l {
		t.Fatal("Line not idempotent by id")
	}
	p.Line(3, "file-b")
	p.SortLines()
	if p.Lines[0].ID != 3 {
		t.Fatal("SortLines broken")
	}
	p.SetStat("bw", "94")
	if p.Stats["bw"] != "94" {
		t.Fatal("SetStat broken")
	}
	if s.TotalEvents() != 1 {
		t.Fatalf("TotalEvents = %d", s.TotalEvents())
	}
	if s.FindPlane("/missing") != nil {
		t.Fatal("FindPlane invented a plane")
	}
}

// recordHostEvents runs threads sim threads that each record perThread
// interleaved TraceMe events into a host tracer's session, and returns
// the stopped tracer, ready to collect.
func recordHostEvents(tb testing.TB, threads, perThread int) *HostTracer {
	tb.Helper()
	h := NewHostTracer(NewTraceMeRecorder())
	k := sim.NewKernel()
	if err := h.Start(nil); err != nil {
		tb.Fatal(err)
	}
	for i := range threads {
		k.Spawn(fmt.Sprintf("worker-%d", i), func(th *sim.Thread) {
			for range perThread {
				tm := h.recorder.Begin(th, "op")
				th.Sleep(sim.Microsecond)
				tm.End(th)
			}
		})
	}
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	if err := h.Stop(nil); err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestHostTracerPagesAndLines: the recorder keeps events in recording
// order across full pages, and CollectData gives each thread one line
// whose events are allocated once, at the thread's event count.
func TestHostTracerPagesAndLines(t *testing.T) {
	const threads, perThread = 3, traceMePage + 1
	h := recordHostEvents(t, threads, perThread)
	if got, want := len(h.pages), (threads*perThread+traceMePage-1)/traceMePage; got != want {
		t.Fatalf("pages = %d, want %d", got, want)
	}
	for i, page := range h.pages[:len(h.pages)-1] {
		if len(page) != traceMePage {
			t.Fatalf("page %d holds %d events, want a full page of %d", i, len(page), traceMePage)
		}
	}
	events := slices.Concat(h.pages...)
	if len(events) != threads*perThread {
		t.Fatalf("recorded %d events, want %d", len(events), threads*perThread)
	}
	if !slices.IsSortedFunc(events, func(a, b RecordedEvent) int { return cmp.Compare(a.EndNs, b.EndNs) }) {
		t.Fatal("pages lost the recording order")
	}

	space := &XSpace{}
	if err := h.CollectData(nil, space); err != nil {
		t.Fatal(err)
	}
	plane := space.FindPlane(HostPlaneName)
	if plane == nil || len(plane.Lines) != threads {
		t.Fatalf("host plane = %+v, want %d lines", plane, threads)
	}
	for _, line := range plane.Lines {
		if len(line.Events) != perThread || cap(line.Events) != perThread {
			t.Errorf("line %d: %d events in capacity %d, want %d in %d", line.ID, len(line.Events), cap(line.Events), perThread, perThread)
		}
		if !slices.IsSortedFunc(line.Events, func(a, b XEvent) int { return cmp.Compare(a.StartNs, b.StartNs) }) {
			t.Errorf("line %d events out of order", line.ID)
		}
	}
}

// TestSessionReleasesHostPages: a stopped and collected session's host
// tracer holds no TraceMe pages; the events live on in the host plane.
func TestSessionReleasesHostPages(t *testing.T) {
	p := New()
	var s *Session
	var space *XSpace
	run(t, func(th *sim.Thread) {
		var err error
		if s, err = p.Start(th); err != nil {
			t.Fatal(err)
		}
		for range traceMePage + 1 {
			tm := p.Recorder().Begin(th, "op")
			th.Sleep(sim.Microsecond)
			tm.End(th)
		}
		if space, err = p.Stop(th); err != nil {
			t.Fatal(err)
		}
	})
	if got := space.TotalEvents(); got != traceMePage+1 {
		t.Fatalf("host plane holds %d events, want %d", got, traceMePage+1)
	}
	for _, tr := range s.Tracers() {
		if h, ok := tr.(*HostTracer); ok && h.pages != nil {
			t.Fatalf("collected host tracer still holds %d pages", len(h.pages))
		}
	}
}

// BenchmarkHostTracerCollectData converts a session of 200k TraceMe
// events over 4 host threads, about an ImageNet epoch's worth, into the
// host plane.
func BenchmarkHostTracerCollectData(b *testing.B) {
	h := recordHostEvents(b, 4, 50_000)
	pages := h.pages
	b.ReportAllocs()
	for b.Loop() {
		h.pages = pages // CollectData releases them
		if err := h.CollectData(nil, &XSpace{}); err != nil {
			b.Fatal(err)
		}
	}
}
