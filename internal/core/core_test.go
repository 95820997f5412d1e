package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tf/keras"
	"repro/internal/tf/profiler"
	"repro/internal/tf/tfdata"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallStream builds a machine with n HDD files and registers tf-Darshan.
func smallStream(n int, size int64) (*platform.Machine, *Handle, []string) {
	m := platform.NewGreendog(platform.Options{})
	cfg := DefaultTracerConfig()
	cfg.SizeOf = func(p string) (int64, bool) {
		ino, ok := m.FS.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}
	h := Register(m.Env, cfg)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/s%05d", platform.GreendogHDDPath, i)
		m.FS.CreateFile(paths[i], size)
	}
	return m, h, paths
}

func run(t *testing.T, m *platform.Machine, fn func(th *sim.Thread)) {
	t.Helper()
	m.K.Spawn("main", fn)
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapperAttachDetach(t *testing.T) {
	m, h, paths := smallStream(2, 1000)
	w := h.Wrapper()
	if w.Attached() {
		t.Fatal("attached before Attach")
	}
	if err := w.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attach(); err != nil { // idempotent
		t.Fatal(err)
	}
	if len(w.PatchedSymbols()) == 0 {
		t.Fatal("no symbols patched")
	}
	run(t, m, func(th *sim.Thread) {
		fd, _ := m.Env.Libc.Open(th, paths[0], 0)
		m.Env.Libc.Close(th, fd)
	})
	if m.Darshan.Posix.RecordCount() != 1 {
		t.Fatal("instrumentation not live after attach")
	}
	if err := w.Detach(); err != nil {
		t.Fatal(err)
	}
	if len(m.Env.Proc.PatchedSymbols()) != 0 {
		t.Fatal("GOT not restored")
	}
	// I/O after detach is invisible.
	m2 := sim.NewKernel()
	_ = m2
	m.K.Spawn("post", func(th *sim.Thread) {
		fd, _ := m.Env.Libc.Open(th, paths[1], 0)
		m.Env.Libc.Close(th, fd)
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Darshan.Posix.RecordCount() != 1 {
		t.Fatal("instrumentation live after detach")
	}
}

func TestSnapshotBeforeAttachFails(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	w := NewWrapper(m.Proc)
	run(t, m, func(th *sim.Thread) {
		if _, err := w.Snapshot(th); err == nil {
			t.Error("snapshot before attach should fail")
		}
		if _, ok := w.LookupName(1); ok {
			t.Error("lookup before attach should fail")
		}
	})
}

// trainProfiled runs a STREAM fit with the TensorBoard callback profiling
// batches [1, steps].
func trainProfiled(t *testing.T, m *platform.Machine, paths []string, threads, batch, steps int) (*keras.TensorBoard, *keras.History) {
	t.Helper()
	tb := keras.NewTensorBoard(1, steps)
	model := workload.MalwareCNN()
	var hist *keras.History
	run(t, m, func(th *sim.Thread) {
		ds := tfdata.FromFiles(m.Env, paths).Shuffle(1).
			Map(workload.StreamMap, threads).Batch(batch).Prefetch(10)
		it, err := ds.MakeIterator()
		if err != nil {
			t.Fatal(err)
		}
		hist, err = model.Fit(th, m.Env, it, keras.FitOptions{
			Steps: steps, Callbacks: []keras.Callback{tb},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if tb.Err != nil {
		t.Fatal(tb.Err)
	}
	return tb, hist
}

func TestEndToEndProfiledTraining(t *testing.T) {
	m, h, paths := smallStream(64, 88*1024)
	trainProfiled(t, m, paths, 4, 8, 8)

	if h.Last == nil {
		t.Fatal("no analysis collected")
	}
	a := h.Last
	if a.Opens != 64 {
		t.Errorf("opens = %d, want 64", a.Opens)
	}
	// TF read loop: 2 reads per file (data + zero).
	if a.Reads != 128 {
		t.Errorf("reads = %d, want 128", a.Reads)
	}
	if a.ZeroReads != 64 {
		t.Errorf("zero reads = %d, want 64", a.ZeroReads)
	}
	if a.SeqReads != 64 || a.ConsecReads != 64 {
		t.Errorf("seq=%d consec=%d, want 64/64", a.SeqReads, a.ConsecReads)
	}
	if a.NonSeqNonConsecReads() != 64 {
		t.Errorf("non-seq reads = %d", a.NonSeqNonConsecReads())
	}
	if a.BytesRead != 64*88*1024 {
		t.Errorf("bytes = %d", a.BytesRead)
	}
	if a.ReadBandwidthMBps <= 0 {
		t.Error("bandwidth not positive")
	}
	// Read size histogram: 64 zero reads in 0-100, 64 data in 10K-100K.
	if a.ReadSizeHist.Counts[0] != 64 || a.ReadSizeHist.Counts[3] != 64 {
		t.Errorf("read size hist = %v", a.ReadSizeHist.Counts)
	}
	// File size histogram: 64 files of 88KB in 10K-100K.
	if a.FileSizeHist.Counts[3] != 64 {
		t.Errorf("file size hist = %v", a.FileSizeHist.Counts)
	}
	if a.FilesAccessed != 64 || len(a.Files) != 64 {
		t.Errorf("files accessed = %d / %d", a.FilesAccessed, len(a.Files))
	}
	for _, f := range a.Files {
		if f.Size != 88*1024 || f.Reads != 2 || f.Opens != 1 {
			t.Fatalf("per-file row wrong: %+v", f)
		}
	}
}

func TestDarshanPlaneInXSpace(t *testing.T) {
	m, _, paths := smallStream(16, 50_000)
	tb, _ := trainProfiled(t, m, paths, 2, 4, 4)
	plane := tb.Space.FindPlane(DarshanPlaneName)
	if plane == nil {
		t.Fatal("tf-darshan plane missing")
	}
	if plane.Stats["posix_opens"] != "16" {
		t.Fatalf("plane stats = %v", plane.Stats)
	}
	if len(plane.Lines) != 16 {
		t.Fatalf("timelines = %d, want one per file", len(plane.Lines))
	}
	// Each timeline: data read + zero read; last event is the zero-length
	// read (the Fig. 8 signature).
	for _, line := range plane.Lines {
		if len(line.Events) != 2 {
			t.Fatalf("line %s has %d events", line.Name, len(line.Events))
		}
		last := line.Events[len(line.Events)-1]
		if _, n, ok := last.IO(); !ok || n != 0 {
			t.Fatalf("final event length = %d (has I/O args: %v), want 0", n, ok)
		}
	}
}

func TestManualSessionsProduceBandwidthSeries(t *testing.T) {
	// Manual mode: restart profiling every few steps (Figs. 3/4).
	m, h, paths := smallStream(64, 100_000)
	model := workload.MalwareCNN()
	run(t, m, func(th *sim.Thread) {
		ds := tfdata.FromFiles(m.Env, paths).Map(workload.StreamMap, 4).Batch(8).Prefetch(4)
		it, _ := ds.MakeIterator()
		for window := 0; window < 4; window++ {
			if _, err := m.Env.Prof.Start(th); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 2; s++ {
				if _, ok := it.Next(th); !ok {
					t.Fatal("pipeline ended early")
				}
				m.Env.GPU.Launch(th, "step", model.StepTime(8))
			}
			if _, err := m.Env.Prof.Stop(th); err != nil {
				t.Fatal(err)
			}
		}
		it.Close(th)
	})
	if len(h.Sessions) != 4 {
		t.Fatalf("sessions = %d", len(h.Sessions))
	}
	ts, bw := h.BandwidthSeries()
	if len(ts) != 4 || len(bw) != 4 {
		t.Fatalf("series lengths = %d/%d", len(ts), len(bw))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatal("session times not increasing")
		}
	}
	var totalBytes int64
	for _, s := range h.Sessions {
		totalBytes += s.BytesRead
		if s.ReadBandwidthMBps <= 0 {
			t.Fatal("session bandwidth not positive")
		}
	}
	// 4 windows x 2 steps x 8 files x 100KB were consumed, but reads the
	// pipeline performs in the gaps between stop and the next start are
	// invisible to the windows (true of the real tool as well), so the
	// windowed total is bounded by — and close to — the full volume.
	if totalBytes > 64*100_000 {
		t.Fatalf("windowed bytes = %d exceeds total I/O", totalBytes)
	}
	if totalBytes < 48*100_000 {
		t.Fatalf("windowed bytes = %d, too much lost between windows", totalBytes)
	}
}

func TestProtoRoundTripOfAnalysis(t *testing.T) {
	m, h, paths := smallStream(8, 88*1024)
	trainProfiled(t, m, paths, 2, 4, 2)
	pb := h.Last.Marshal()
	got, err := proto.UnmarshalDarshanProfile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if got.Opens != h.Last.Opens || got.Reads != h.Last.Reads || got.ZeroReads != h.Last.ZeroReads {
		t.Fatalf("proto round trip: %+v vs %+v", got, h.Last)
	}
	if got.ReadBandwidthMBps != h.Last.ReadBandwidthMBps {
		t.Fatal("bandwidth lost")
	}
	if len(got.Files) != len(h.Last.Files) {
		t.Fatalf("files = %d", len(got.Files))
	}
	if len(got.ReadSizeBuckets) != 10 {
		t.Fatalf("buckets = %d", len(got.ReadSizeBuckets))
	}
}

func TestExportArtifacts(t *testing.T) {
	m, h, paths := smallStream(8, 50_000)
	tb, _ := trainProfiled(t, m, paths, 2, 4, 2)
	art, err := Export(tb.Space, h.Last, tb.Session.StartNs)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.ProfilePB) == 0 || len(art.TraceJSONGz) == 0 {
		t.Fatal("empty artifacts")
	}
	// trace.json.gz parses back and contains the darshan plane events.
	f, err := trace.ReadJSONGz(bytes.NewReader(art.TraceJSONGz))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	if _, err := Export(nil, nil, 0); err == nil {
		t.Fatal("export of nothing should fail")
	}
}

// TestCollectReleasesSnapshots: once a session is stopped and collected,
// its tf-Darshan tracer holds neither snapshot, and the session's tracers
// still yield the analysis.
func TestCollectReleasesSnapshots(t *testing.T) {
	m, h, paths := smallStream(8, 50_000)
	tb, _ := trainProfiled(t, m, paths, 2, 4, 2)
	found := 0
	for _, tr := range tb.Session.Tracers() {
		d, ok := tr.(*DarshanTracer)
		if !ok {
			continue
		}
		found++
		if d.startSnap != nil || d.stopSnap != nil {
			t.Errorf("collected tracer still holds its snapshots (start %v, stop %v)", d.startSnap != nil, d.stopSnap != nil)
		}
		if a := d.Analysis(); a == nil || a != h.Last || a.Opens != 8 {
			t.Errorf("tracer analysis = %+v, want the handle's last session with 8 opens", a)
		}
	}
	if found != 1 {
		t.Fatalf("session has %d tf-Darshan tracers, want 1", found)
	}
}

func TestAnalysisOverheadChargedAtCollect(t *testing.T) {
	// CollectData charges exactly the in-situ analysis cost — per file
	// accessed in the window plus per DXT segment converted — the
	// mechanism behind Fig. 5.
	m, h, paths := smallStream(6, 10_000)
	tr := &DarshanTracer{h: h}
	space := &profiler.XSpace{}
	var elapsed int64
	run(t, m, func(th *sim.Thread) {
		if err := tr.Start(th); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for _, p := range paths {
			fd, _ := m.Env.Libc.Open(th, p, 0)
			m.Env.Libc.Pread(th, fd, buf, int64(len(buf)), 0)
			m.Env.Libc.Pread(th, fd, buf, int64(len(buf)), 4096)
			m.Env.Libc.Close(th, fd)
		}
		if err := tr.Stop(th); err != nil {
			t.Error(err)
			return
		}
		start := th.Now()
		if err := tr.CollectData(th, space); err != nil {
			t.Error(err)
			return
		}
		elapsed = th.Now() - start
	})
	files, segs := int64(h.Last.FilesAccessed), int64(space.TotalEvents())
	if files != int64(len(paths)) || segs != 2*int64(len(paths)) {
		t.Fatalf("window saw %d files and %d segments, want %d and %d", files, segs, len(paths), 2*len(paths))
	}
	if want := files*int64(analysisPerRecordCPU) + segs*int64(analysisPerSegmentCPU); elapsed != want {
		t.Fatalf("CollectData took %dns, want %d files x %v + %d segments x %v = %dns",
			elapsed, files, analysisPerRecordCPU, segs, analysisPerSegmentCPU, want)
	}
}

func TestStagingAdvisorPicksSmallFiles(t *testing.T) {
	// Mixed population: 40 small files (1MB) + 60 large (10MB).
	s := &SessionStats{}
	for i := 0; i < 40; i++ {
		s.Files = append(s.Files, FileStats{Name: fmt.Sprintf("small%02d", i), Size: 1 << 20})
	}
	for i := 0; i < 60; i++ {
		s.Files = append(s.Files, FileStats{Name: fmt.Sprintf("large%02d", i), Size: 10 << 20})
	}
	adv := AdviseStaging(s, 480<<30)
	// With the upper-inclusive threshold the 1MB rung already captures the
	// whole small regime (files of exactly 1MB), so any rung from 1MB up is
	// a correct pick as long as it stages exactly the small files.
	if adv.Threshold < 1<<20 || adv.Threshold > 8<<20 {
		t.Fatalf("threshold = %d", adv.Threshold)
	}
	if adv.FileCount != 40 {
		t.Fatalf("staged files = %d", adv.FileCount)
	}
	if adv.FracFiles() != 0.4 {
		t.Fatalf("frac files = %v", adv.FracFiles())
	}
	if adv.FracBytes() > 0.1 {
		t.Fatalf("frac bytes = %v, want small", adv.FracBytes())
	}
	if len(adv.Files) != 40 {
		t.Fatalf("file list = %d", len(adv.Files))
	}
}

func TestStagingThresholdEdgeInclusive(t *testing.T) {
	// Regression: the advisor used the exclusive `Size < threshold` while
	// the Darshan size histograms it reasons from have upper-inclusive
	// edges, so a file sitting exactly on a bucket edge showed up in the
	// file-size panel but was silently skipped by the staging advice.
	s := &SessionStats{}
	for i := 0; i < 40; i++ {
		s.Files = append(s.Files, FileStats{Name: fmt.Sprintf("edge%02d", i), Size: 2 << 20})
	}
	for i := 0; i < 60; i++ {
		s.Files = append(s.Files, FileStats{Name: fmt.Sprintf("large%02d", i), Size: 50 << 20})
	}
	adv := AdviseStaging(s, 480<<30)
	if adv.Threshold != 2<<20 {
		t.Fatalf("threshold = %d, want the 2MB edge rung", adv.Threshold)
	}
	if adv.FileCount != 40 || len(adv.Files) != 40 {
		t.Fatalf("staged %d files (list %d), want all 40 edge-sized files", adv.FileCount, len(adv.Files))
	}
	// The same file lands in the 1M-4M histogram bucket whose lower edge it
	// sits on the boundary of — panel and advisor now agree.
	h := stats.NewDarshanSizeHistogram()
	h.Add(2 << 20)
	if h.Counts[5] != 1 { // 1M-4M bucket
		t.Fatalf("histogram bucket counts = %v", h.Counts)
	}
}

func TestStagingRespectsCapacity(t *testing.T) {
	s := &SessionStats{}
	for i := 0; i < 10; i++ {
		s.Files = append(s.Files, FileStats{Name: fmt.Sprintf("f%d", i), Size: 1 << 20})
	}
	for i := 0; i < 10; i++ {
		s.Files = append(s.Files, FileStats{Name: fmt.Sprintf("g%d", i), Size: 100 << 20})
	}
	adv := AdviseStaging(s, 5<<20) // capacity below the 10MB of small files
	if adv.Bytes > 5<<20 {
		t.Fatalf("advice exceeds capacity: %d", adv.Bytes)
	}
}

func TestStagingEmptyAnalysis(t *testing.T) {
	adv := AdviseStaging(nil, 1<<30)
	if adv.FileCount != 0 || len(adv.Files) != 0 {
		t.Fatal("empty analysis should advise nothing")
	}
}

func TestAdvisorRefusesUniformPopulation(t *testing.T) {
	// All files the same size: staging "small files" is meaningless (it
	// would stage 100% of the bytes), so the advisor stages nothing.
	s := &SessionStats{}
	for i := 0; i < 16; i++ {
		s.Files = append(s.Files, FileStats{Name: fmt.Sprintf("u%d", i), Size: 500_000})
	}
	if adv := AdviseStaging(s, 1<<40); adv.FileCount != 0 {
		t.Fatalf("advisor staged %d files of a uniform population", adv.FileCount)
	}
}

func TestApplyStagingMovesFiles(t *testing.T) {
	m, h, paths := smallStream(8, 100_000) // small half
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("%s/big%02d", platform.GreendogHDDPath, i)
		m.FS.CreateFile(p, 5<<20)
		paths = append(paths, p)
	}
	trainProfiled(t, m, paths, 2, 4, 4)
	adv := AdviseStaging(h.Last, 480<<30)
	if adv.FileCount == 0 {
		t.Fatal("advisor staged nothing")
	}
	moved, err := ApplyStaging(m.FS, adv, m.FastMount)
	if err != nil {
		t.Fatal(err)
	}
	if moved != adv.FileCount {
		t.Fatalf("moved %d, want %d", moved, adv.FileCount)
	}
	// Reads now land on the Optane device.
	before := m.Optane.Counters().BytesRead
	m.K.Spawn("reread", func(th *sim.Thread) {
		fd, _ := m.Env.Libc.Open(th, adv.Files[0], 0)
		buf := make([]byte, 1000)
		m.Env.Libc.Pread(th, fd, buf, int64(len(buf)), 0)
		m.Env.Libc.Close(th, fd)
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Optane.Counters().BytesRead == before {
		t.Fatal("staged file still served from HDD")
	}
}

func TestSummaryString(t *testing.T) {
	m, h, paths := smallStream(4, 10_000)
	trainProfiled(t, m, paths, 2, 2, 2)
	s := h.Last.Summary()
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
}
