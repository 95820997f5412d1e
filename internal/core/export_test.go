package core_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/tensorboard"
	"repro/internal/tf/profiler"
)

// syntheticSession builds the analysis and XSpace of a session shaped
// like imagenet-profiled's: n files, each opened once and read twice (the
// data and a zero-length read), one tf-Darshan timeline per file, and a
// host plane of four threads with n TraceMe events between them.
func syntheticSession(n int) (*profiler.XSpace, *core.SessionStats) {
	a := &core.SessionStats{
		DarshanProfile: proto.DarshanProfile{
			StartTime:     1,
			EndTime:       9,
			FilesAccessed: int64(n),
			Files:         make([]core.FileStats, n),
		},
		ReadSizeHist:  stats.NewDarshanSizeHistogram(),
		WriteSizeHist: stats.NewDarshanSizeHistogram(),
		FileSizeHist:  stats.NewDarshanSizeHistogram(),
	}
	a.ReadSizeBuckets = a.ReadSizeHist.Counts
	a.WriteSizeBuckets = a.WriteSizeHist.Counts
	a.FileSizeBuckets = a.FileSizeHist.Counts
	space := &profiler.XSpace{}
	host := space.Plane(profiler.HostPlaneName)
	plane := space.Plane(core.DarshanPlaneName)
	for i := range n {
		name := fmt.Sprintf("/lustre/imagenet/train/n%08d/n%08d_%d.JPEG", i/1300, i/1300, i)
		size := int64(60_000 + i*7919%90_000)
		a.Files[i] = core.FileStats{
			RecordID: uint64(i+1) * 0x9E3779B97F4A7C15, Name: name, Size: size,
			Opens: 1, Reads: 2, BytesRead: size, ReadTime: float64(i*977%4001) * 1e-6,
		}
		a.Opens++
		a.Reads += 2
		a.ZeroReads++
		a.BytesRead += size
		a.ReadSizeHist.Add(size)
		a.ReadSizeHist.Add(0)
		a.FileSizeHist.Add(size)

		start := int64(i) * 60_000
		data := profiler.XEvent{Name: "pread", StartNs: start, DurNs: 41_000}
		data.SetIO(0, size)
		zero := profiler.XEvent{Name: "pread", StartNs: start + 41_000, DurNs: 2_000}
		zero.SetIO(size, 0)
		plane.Line(int64(a.Files[i].RecordID&0x7FFFFFFFFFFFFFFF), name).Events = []profiler.XEvent{data, zero}

		thread := host.Line(int64(i%4), fmt.Sprintf("tf_data_worker_%d", i%4))
		thread.Events = append(thread.Events, profiler.XEvent{Name: "ReadFile", StartNs: start, DurNs: 43_000})
	}
	a.ReadBandwidthMBps = float64(a.BytesRead) / 1e6 / a.Duration()
	plane.SortLines()
	return space, a
}

// TestTensorBoardProfilePBMatchesExport: the TensorBoard server's
// /profile.pb and /trace.json.gz downloads are the artifacts Export
// writes.
func TestTensorBoardProfilePBMatchesExport(t *testing.T) {
	space, a := syntheticSession(1000)
	art, err := core.Export(space, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := tensorboard.NewServer(map[string]*tensorboard.ProfileData{
		"run": {Run: "run", Analysis: a, Space: space},
	})
	for _, c := range []struct {
		path string
		want []byte
	}{
		{"/run/run/profile.pb", art.ProfilePB},
		{"/run/run/trace.json.gz", art.TraceJSONGz},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		got, _ := io.ReadAll(rec.Result().Body)
		if rec.Code != 200 || !bytes.Equal(got, c.want) {
			t.Errorf("%s: status %d, %d bytes; want 200 and Export's %d bytes", c.path, rec.Code, len(got), len(c.want))
		}
	}
}

// exportAlloc returns the bytes allocated by one Export of the session,
// and the artifacts.
func exportAlloc(t *testing.T, space *profiler.XSpace, a *core.SessionStats) (uint64, *core.Artifacts) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	art, err := core.Export(space, a, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, art
}

// TestExportAllocatesOutputOnce: Export allocates about what it returns.
// profile.pb is encoded into one buffer of its final size from a message
// holding one FileProfile per file, and trace.json.gz is gathered in
// pages and copied once, so the total stays within three times the two
// artifacts plus a constant for the trace writer's buffers. A nested
// encoder per file or a doubling output buffer allocates several times
// the artifacts' size.
func TestExportAllocatesOutputOnce(t *testing.T) {
	const slack = 256 << 10
	for _, n := range []int{1000, 16000} {
		space, a := syntheticSession(n)
		exportAlloc(t, space, a) // the gzip writer's state comes from a free list after the first use
		alloc, art := exportAlloc(t, space, a)
		out := uint64(len(art.ProfilePB) + len(art.TraceJSONGz))
		if limit := 3*out + slack; alloc > limit {
			t.Errorf("%d files: Export allocated %d bytes for %d bytes of profile.pb and %d of trace.json.gz, want at most %d",
				n, alloc, len(art.ProfilePB), len(art.TraceJSONGz), limit)
		}
	}
}

// BenchmarkExport exports a 16,000-file session shaped like
// imagenet-profiled's: profile.pb and trace.json.gz (deflate-bound).
func BenchmarkExport(b *testing.B) {
	space, a := syntheticSession(16000)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.Export(space, a, 0); err != nil {
			b.Fatal(err)
		}
	}
}
