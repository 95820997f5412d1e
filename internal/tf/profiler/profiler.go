// Package profiler reimplements the TensorFlow 2.2.0 profiler
// architecture the paper builds on (its Fig. 1): a TraceMe recorder for
// host-side op annotations, a registry of pluggable tracers invoked by the
// runtime at profiling start/stop, and the XSpace container the collected
// data is assembled into before export. tf-Darshan plugs in as one more
// tracer, exactly as the CUPTI-backed device tracer does for GPUs.
package profiler

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Tracer is the pluggable data-collection interface of the TF profiler.
// The runtime starts all registered tracers when a profiling session
// begins, stops them when it ends, and then asks each to contribute its
// data to the session's XSpace.
type Tracer interface {
	Name() string
	Start(t *sim.Thread) error
	Stop(t *sim.Thread) error
	CollectData(t *sim.Thread, space *XSpace) error
}

// TracerFactory creates a tracer for a new session.
type TracerFactory func() Tracer

// XSpace is the profiler's collected-data container (mirrors the XSpace
// protobuf): a set of planes, one per data source.
type XSpace struct {
	Planes []*XPlane
}

// Plane returns the plane with the given name, creating it if needed.
func (s *XSpace) Plane(name string) *XPlane {
	if p := s.FindPlane(name); p != nil {
		return p
	}
	p := &XPlane{Name: name}
	s.Planes = append(s.Planes, p)
	return p
}

// FindPlane returns the named plane or nil. A space holds one plane per
// tracer, so a scan is all the lookup needs.
func (s *XSpace) FindPlane(name string) *XPlane {
	for _, p := range s.Planes {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// TotalEvents counts events across all planes and lines.
func (s *XSpace) TotalEvents() int {
	n := 0
	for _, p := range s.Planes {
		for _, l := range p.Lines {
			n += len(l.Events)
		}
	}
	return n
}

// XPlane holds one source's timelines (host CPU, GPU, Darshan POSIX...).
type XPlane struct {
	Name  string
	Lines []*XLine
	// Stats carries plane-level key/value statistics (the profiler uses
	// these for its analysis pages).
	Stats map[string]string

	// lineIndex maps line id → line; Line is called per collected event
	// and tf-Darshan planes carry one line per file, so a linear scan is
	// quadratic in file count. Rebuilt lazily after direct Lines appends;
	// SortLines only reorders the slice, which leaves the index valid.
	lineIndex map[int64]*XLine
}

func (p *XPlane) reindexLines() {
	p.lineIndex = make(map[int64]*XLine, len(p.Lines))
	for _, l := range p.Lines {
		p.lineIndex[l.ID] = l
	}
}

// FindLine returns the line with the given id, or nil.
func (p *XPlane) FindLine(id int64) *XLine {
	if p.lineIndex == nil || len(p.lineIndex) != len(p.Lines) {
		p.reindexLines()
	}
	return p.lineIndex[id]
}

// Line returns the line with the given id, creating it (with name) if
// needed.
func (p *XPlane) Line(id int64, name string) *XLine {
	if l := p.FindLine(id); l != nil {
		return l
	}
	l := &XLine{ID: id, Name: name}
	p.Lines = append(p.Lines, l)
	p.lineIndex[id] = l
	return l
}

// SetStat records a plane-level statistic.
func (p *XPlane) SetStat(key, value string) {
	if p.Stats == nil {
		p.Stats = make(map[string]string)
	}
	p.Stats[key] = value
}

// SortLines orders lines by id for deterministic export.
func (p *XPlane) SortLines() {
	sort.Slice(p.Lines, func(i, j int) bool { return p.Lines[i].ID < p.Lines[j].ID })
}

// XLine is one timeline (a thread, a GPU stream, a file).
type XLine struct {
	ID     int64
	Name   string
	Events []XEvent
}

// XEvent is one timed event on a line. Times are virtual nanoseconds from
// session start.
type XEvent struct {
	Name    string
	StartNs int64
	DurNs   int64

	// hasIO/ioOffset/ioLength are the {offset, length} arguments tf-Darshan
	// attaches to every traced I/O segment, the only arguments an event
	// carries. They are typed so collection formats and allocates nothing;
	// exporters write the numbers directly.
	hasIO    bool
	ioOffset int64
	ioLength int64
}

// SetIO attaches the event's I/O arguments: file offset and length in
// bytes.
func (ev *XEvent) SetIO(offset, length int64) {
	ev.hasIO = true
	ev.ioOffset = offset
	ev.ioLength = length
}

// IO returns the I/O arguments set by SetIO; ok is false when the event
// carries none.
func (ev *XEvent) IO() (offset, length int64, ok bool) {
	return ev.ioOffset, ev.ioLength, ev.hasIO
}

// TraceMeRecorder collects host-side op annotations while active. TF ops
// bracket their execution with TraceMe calls; recording only costs time
// when a session is active, which is the profiler's own contribution to
// Fig. 5 overhead.
type TraceMeRecorder struct {
	active bool
	// pages holds the recorded events in order, in pages of traceMePage
	// events: a long session appends a page at a time instead of
	// regrowing (and copying) one slice of every event so far.
	pages [][]RecordedEvent
}

// traceMePage is how many events one recorder page holds.
const traceMePage = 1024

// traceMeEventCPU is the bookkeeping cost charged per recorded event.
const traceMeEventCPU = 300 * sim.Nanosecond

// RecordedEvent is one completed TraceMe annotation.
type RecordedEvent struct {
	Name    string
	TID     int
	Thread  string
	StartNs int64
	EndNs   int64
}

// NewTraceMeRecorder returns an inactive recorder.
func NewTraceMeRecorder() *TraceMeRecorder { return &TraceMeRecorder{} }

// Start begins collection.
func (r *TraceMeRecorder) Start() { r.active = true }

// StopAndCollect ends collection and returns the events gathered, in
// recording order, as pages of at most traceMePage events.
func (r *TraceMeRecorder) StopAndCollect() [][]RecordedEvent {
	r.active = false
	out := r.pages
	r.pages = nil
	return out
}

// TraceMe is an in-flight annotation.
type TraceMe struct {
	r       *TraceMeRecorder
	name    string
	startNs int64
	started bool
}

// Begin opens an annotation; pair with End.
func (r *TraceMeRecorder) Begin(t *sim.Thread, name string) TraceMe {
	if !r.active {
		return TraceMe{}
	}
	return TraceMe{r: r, name: name, startNs: t.Now(), started: true}
}

// End closes the annotation, recording it if the recorder was active at
// Begin time.
func (tm TraceMe) End(t *sim.Thread) {
	if !tm.started || tm.r == nil {
		return
	}
	t.Sleep(traceMeEventCPU)
	r := tm.r
	if n := len(r.pages); n == 0 || len(r.pages[n-1]) == traceMePage {
		r.pages = append(r.pages, make([]RecordedEvent, 0, traceMePage))
	}
	page := &r.pages[len(r.pages)-1]
	*page = append(*page, RecordedEvent{
		Name:    tm.name,
		TID:     t.ID(),
		Thread:  t.Name(),
		StartNs: tm.startNs,
		EndNs:   t.Now(),
	})
}

// HostPlaneName is the XSpace plane of host (CPU) traces.
const HostPlaneName = "/host:CPU"

// HostTracer converts TraceMe recordings into the host plane, standing in
// for TF's host tracer built on the same recorder.
type HostTracer struct {
	recorder *TraceMeRecorder
	pages    [][]RecordedEvent
}

// NewHostTracer returns a host tracer over the shared recorder.
func NewHostTracer(r *TraceMeRecorder) *HostTracer { return &HostTracer{recorder: r} }

// Name implements Tracer.
func (h *HostTracer) Name() string { return "host" }

// Start implements Tracer.
func (h *HostTracer) Start(t *sim.Thread) error {
	h.recorder.Start()
	return nil
}

// Stop implements Tracer.
func (h *HostTracer) Stop(t *sim.Thread) error {
	h.pages = h.recorder.StopAndCollect()
	return nil
}

// CollectData implements Tracer: one line per host thread, each line's
// events allocated once at that thread's event count. The recorded pages
// are released once converted.
func (h *HostTracer) CollectData(t *sim.Thread, space *XSpace) error {
	perThread := make(map[int]int)
	for _, page := range h.pages {
		for i := range page {
			perThread[page[i].TID]++
		}
	}
	plane := space.Plane(HostPlaneName)
	for _, page := range h.pages {
		for i := range page {
			ev := &page[i]
			line := plane.Line(int64(ev.TID), ev.Thread)
			if line.Events == nil {
				line.Events = make([]XEvent, 0, perThread[ev.TID])
			}
			line.Events = append(line.Events, XEvent{
				Name:    ev.Name,
				StartNs: ev.StartNs,
				DurNs:   ev.EndNs - ev.StartNs,
			})
		}
	}
	plane.SortLines()
	h.pages = nil
	return nil
}

// Profiler is the runtime's profiling controller: a tracer registry plus
// session lifecycle, mirroring tf.profiler.experimental.start/stop.
type Profiler struct {
	recorder  *TraceMeRecorder
	factories []TracerFactory
	active    *Session
	// Sessions counts completed sessions (for tooling).
	Sessions int

	// ExportCosts overrides defaultExportCost per plane, and
	// ExportLineCosts adds a per-line (per-timeline) cost — tf-Darshan's
	// per-file timelines pass through a heavier conversion than the native
	// host/device planes, which is why the paper's automatic-mode overhead
	// (Fig. 5) far exceeds its manual extract-only mode.
	ExportCosts     map[string]sim.Duration
	ExportLineCosts map[string]sim.Duration
}

// defaultExportCost is the serialization cost per event charged by
// ChargeExportCost when a collected profile is exported to TensorBoard
// artifacts (the automatic-callback path).
const defaultExportCost = 150 * sim.Microsecond

// ErrSessionActive is returned by Start when a session is running.
var ErrSessionActive = errors.New("profiler: session already active")

// ErrNoSession is returned by Stop without a running session.
var ErrNoSession = errors.New("profiler: no active session")

// New returns a profiler with the host tracer pre-registered, like TF.
func New() *Profiler {
	p := &Profiler{
		recorder:        NewTraceMeRecorder(),
		ExportCosts:     make(map[string]sim.Duration),
		ExportLineCosts: make(map[string]sim.Duration),
	}
	p.RegisterTracer(func() Tracer { return NewHostTracer(p.recorder) })
	return p
}

// ChargeExportCost charges the artifact-serialization cost of exporting
// space (protobuf + trace.json.gz conversion). Callers that only extract
// statistics (manual mode) skip it.
func (p *Profiler) ChargeExportCost(t *sim.Thread, space *XSpace) {
	if space == nil {
		return
	}
	var total sim.Duration
	for _, plane := range space.Planes {
		cost, ok := p.ExportCosts[plane.Name]
		if !ok {
			cost = defaultExportCost
		}
		n := 0
		for _, l := range plane.Lines {
			n += len(l.Events)
		}
		total += sim.Duration(n) * cost
		total += sim.Duration(len(plane.Lines)) * p.ExportLineCosts[plane.Name]
	}
	if total > 0 {
		t.Sleep(total)
	}
}

// Recorder returns the shared TraceMe recorder ops annotate through.
func (p *Profiler) Recorder() *TraceMeRecorder { return p.recorder }

// RegisterTracer adds a tracer factory; each session instantiates one
// tracer per factory. This is the extension point tf-Darshan uses.
func (p *Profiler) RegisterTracer(f TracerFactory) { p.factories = append(p.factories, f) }

// Session is one profiling window.
type Session struct {
	p       *Profiler
	tracers []Tracer
	StartNs int64
	StopNs  int64
	stopped bool
}

// Start opens a profiling session and starts every registered tracer.
func (p *Profiler) Start(t *sim.Thread) (*Session, error) {
	if p.active != nil {
		return nil, ErrSessionActive
	}
	s := &Session{p: p, StartNs: t.Now()}
	for _, f := range p.factories {
		s.tracers = append(s.tracers, f())
	}
	for _, tr := range s.tracers {
		if err := tr.Start(t); err != nil {
			return nil, fmt.Errorf("profiler: starting %s: %w", tr.Name(), err)
		}
	}
	p.active = s
	return s, nil
}

// ActiveSession returns the running session, if any.
func (p *Profiler) ActiveSession() *Session { return p.active }

// Stop ends the session and collects all tracer data into an XSpace.
func (p *Profiler) Stop(t *sim.Thread) (*XSpace, error) {
	if p.active == nil {
		return nil, ErrNoSession
	}
	s := p.active
	p.active = nil
	return s.stopAndCollect(t)
}

func (s *Session) stopAndCollect(t *sim.Thread) (*XSpace, error) {
	if s.stopped {
		return nil, ErrNoSession
	}
	s.stopped = true
	s.StopNs = t.Now()
	for _, tr := range s.tracers {
		if err := tr.Stop(t); err != nil {
			return nil, fmt.Errorf("profiler: stopping %s: %w", tr.Name(), err)
		}
	}
	space := &XSpace{}
	for _, tr := range s.tracers {
		if err := tr.CollectData(t, space); err != nil {
			return nil, fmt.Errorf("profiler: collecting %s: %w", tr.Name(), err)
		}
	}
	s.p.Sessions++
	return space, nil
}

// Tracers returns the session's tracer instances, letting tooling fetch
// typed results (e.g. tf-Darshan's analysis) after collection.
func (s *Session) Tracers() []Tracer { return s.tracers }
