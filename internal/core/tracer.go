package core

import (
	"fmt"
	"slices"

	"repro/internal/darshan"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/tf/profiler"
)

// DarshanPlaneName is the XSpace plane tf-Darshan contributes: per-file
// POSIX timelines plus the session statistics, the data behind the
// TensorBoard panels and TraceViewer rows of Figs. 7-10.
const DarshanPlaneName = "/host:tf-darshan(POSIX)"

// TracerConfig configures the tracer.
type TracerConfig struct {
	// SizeOf resolves file sizes for the file-size panel (may be nil).
	SizeOf SizeOfFunc
}

// DefaultTracerConfig returns the tracer configuration with no file-size
// resolver.
func DefaultTracerConfig() TracerConfig { return TracerConfig{} }

// The in-situ analysis costs (the post-profiling work the paper identifies
// as the dominant overhead contributor in Fig. 5), calibrated against its
// overhead bands (see EXPERIMENTS.md for the derivation).
const (
	// analysisPerRecordCPU is charged per live Darshan record when the
	// stop-snapshot is analyzed.
	analysisPerRecordCPU = sim.Millisecond
	// analysisPerSegmentCPU is charged per DXT segment converted to a
	// trace event.
	analysisPerSegmentCPU = 20 * sim.Microsecond
)

// Serialization costs of the tf-Darshan plane on the TensorBoard export
// path (the automatic-callback mode). The per-file timeline conversion
// dominates — the paper's automatic-mode overheads are similar for
// ImageNet and malware despite a 2.7x difference in segment counts, so
// the cost scales with files, not events (Fig. 5 and §IV-C).
const (
	DarshanExportCostPerEvent = 50 * sim.Microsecond
	DarshanExportCostPerLine  = 3500 * sim.Microsecond
)

// Handle retains results across profiling sessions: manual-mode restarts
// (paper Figs. 3/4 re-derive bandwidth every five steps) produce one
// SessionStats per window.
type Handle struct {
	wrapper *Wrapper
	cfg     TracerConfig
	// Last is the most recent session's analysis.
	Last *SessionStats
	// Sessions collects every completed session's analysis in order.
	Sessions []*SessionStats
}

// Register wires tf-Darshan into the environment's profiler as a tracer
// factory (the pluggable-tracer extension point of TF 2.2.0) and returns
// the handle used to retrieve analyses.
func Register(env *tf.Env, cfg TracerConfig) *Handle {
	h := &Handle{wrapper: NewWrapper(env.Proc), cfg: cfg}
	env.Prof.RegisterTracer(func() profiler.Tracer {
		return &DarshanTracer{h: h}
	})
	env.Prof.ExportCosts[DarshanPlaneName] = DarshanExportCostPerEvent
	env.Prof.ExportLineCosts[DarshanPlaneName] = DarshanExportCostPerLine
	return h
}

// Wrapper exposes the underlying middle-man (e.g. for explicit detach).
func (h *Handle) Wrapper() *Wrapper { return h.wrapper }

// BandwidthSeries returns (time, MB/s) samples, one per completed session
// — the red dots of Figs. 3/4.
func (h *Handle) BandwidthSeries() (ts []float64, mbps []float64) {
	for _, s := range h.Sessions {
		ts = append(ts, s.EndTime)
		mbps = append(mbps, s.ReadBandwidthMBps)
	}
	return ts, mbps
}

// DarshanTracer implements profiler.Tracer over the wrapper: snapshot at
// Start, snapshot at Stop, analyze the difference at CollectData.
type DarshanTracer struct {
	h         *Handle
	startSnap *darshan.Log
	stopSnap  *darshan.Log
}

// Name implements profiler.Tracer.
func (d *DarshanTracer) Name() string { return "tf-darshan" }

// Start implements profiler.Tracer: attach on first use (runtime
// attachment is lazy, so unprofiled runs never pay for instrumentation),
// then snapshot the module buffers.
func (d *DarshanTracer) Start(t *sim.Thread) error {
	if err := d.h.wrapper.Attach(); err != nil {
		return err
	}
	snap, err := d.h.wrapper.Snapshot(t)
	if err != nil {
		return err
	}
	d.startSnap = snap
	return nil
}

// Stop implements profiler.Tracer.
func (d *DarshanTracer) Stop(t *sim.Thread) error {
	snap, err := d.h.wrapper.Snapshot(t)
	if err != nil {
		return err
	}
	d.stopSnap = snap
	return nil
}

// CollectData implements profiler.Tracer: diff the snapshots, charge the
// in-situ analysis cost, populate the tf-Darshan plane with per-file
// timelines and session statistics, and retain the typed analysis on the
// handle. It releases the snapshots, so a tracer collects once.
func (d *DarshanTracer) CollectData(t *sim.Thread, space *profiler.XSpace) error {
	if d.startSnap == nil || d.stopSnap == nil {
		return fmt.Errorf("core: collect before start/stop")
	}
	analysis := Analyze(d.startSnap, d.stopSnap, d.h.wrapper.LookupName, d.h.cfg.SizeOf)
	d.h.Last = analysis
	d.h.Sessions = append(d.h.Sessions, analysis)

	plane := space.Plane(DarshanPlaneName)
	windowSegs := d.populateTimelines(plane, analysis)
	// The analysis and the timelines hold all the session needs; the
	// snapshots (a copy of every record and DXT segment) need not stay
	// live for as long as the session does.
	d.startSnap, d.stopSnap = nil, nil

	// In-situ log analysis cost: proportional to files active during the
	// window plus the trace segments falling inside it (the paper's
	// "overhead has a strong correlation against the number of files
	// processed").
	if analysis.FilesAccessed > 0 {
		t.Sleep(sim.Duration(analysis.FilesAccessed) * analysisPerRecordCPU)
	}
	if windowSegs > 0 {
		t.Sleep(sim.Duration(windowSegs) * analysisPerSegmentCPU)
	}
	plane.SetStat("posix_read_bandwidth_MBps", fmt.Sprintf("%.2f", analysis.ReadBandwidthMBps))
	plane.SetStat("posix_opens", fmt.Sprintf("%d", analysis.Opens))
	plane.SetStat("posix_reads", fmt.Sprintf("%d", analysis.Reads))
	plane.SetStat("posix_zero_reads", fmt.Sprintf("%d", analysis.ZeroReads))
	plane.SetStat("posix_seq_reads", fmt.Sprintf("%d", analysis.SeqReads))
	plane.SetStat("posix_consec_reads", fmt.Sprintf("%d", analysis.ConsecReads))
	plane.SetStat("files_accessed", fmt.Sprintf("%d", analysis.FilesAccessed))
	plane.SetStat("stdio_writes", fmt.Sprintf("%d", analysis.StdioWrites))
	return nil
}

// populateTimelines exports DXT segments within the session window as one
// TraceViewer line per file, returning the number of segments converted.
func (d *DarshanTracer) populateTimelines(plane *profiler.XPlane, analysis *SessionStats) int64 {
	jobStartOffset := func(sec float64) int64 { return int64(sec * 1e9) }
	inWindow := func(seg *darshan.Segment) bool {
		return seg.Start >= d.startSnap.JobEnd && seg.End <= d.stopSnap.JobEnd
	}
	var converted int64
	for i := range d.stopSnap.DXT {
		rec := &d.stopSnap.DXT[i]
		n := 0
		for _, segs := range [2][]darshan.Segment{rec.ReadSegs, rec.WriteSegs} {
			for j := range segs {
				if inWindow(&segs[j]) {
					n++
				}
			}
		}
		if n == 0 {
			continue
		}
		name, _ := d.h.wrapper.LookupName(rec.ID)
		line := plane.Line(int64(rec.ID&0x7FFFFFFFFFFFFFFF), name)
		line.Events = slices.Grow(line.Events, n)
		for k, segs := range [2][]darshan.Segment{rec.ReadSegs, rec.WriteSegs} {
			op := [2]string{"pread", "pwrite"}[k]
			for j := range segs {
				seg := &segs[j]
				if !inWindow(seg) {
					continue
				}
				ev := profiler.XEvent{
					Name:    op,
					StartNs: jobStartOffset(seg.Start),
					DurNs:   jobStartOffset(seg.End) - jobStartOffset(seg.Start),
				}
				// Typed args: no per-segment map or formatted strings;
				// renderers materialize them on demand.
				ev.SetIO(seg.Offset, seg.Length)
				line.Events = append(line.Events, ev)
			}
		}
		converted += int64(n)
	}
	plane.SortLines()
	return converted
}

// Analysis returns the collected analysis of this tracer's session.
func (d *DarshanTracer) Analysis() *SessionStats { return d.h.Last }
