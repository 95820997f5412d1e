package profiler

import (
	"errors"
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
		evs := r.StopAndCollect()
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
