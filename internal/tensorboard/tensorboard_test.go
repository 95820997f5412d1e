package tensorboard

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/workload"
)

// profiledRun produces a complete ProfileData from a small STREAM train.
func profiledRun(t *testing.T) *ProfileData {
	t.Helper()
	m := platform.NewGreendog(platform.Options{})
	cfg := core.DefaultTracerConfig()
	cfg.SizeOf = func(p string) (int64, bool) {
		ino, ok := m.FS.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}
	h := core.Register(m.Env, cfg)
	paths := make([]string, 32)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/t%03d", platform.GreendogHDDPath, i)
		m.FS.CreateFile(paths[i], 88*1024)
	}
	tb := keras.NewTensorBoard(1, 4)
	model := workload.MalwareCNN()
	var hist *keras.History
	m.K.Spawn("main", func(th *sim.Thread) {
		ds := tfdata.FromFiles(m.Env, paths).Map(workload.StreamMap, 4).Batch(8).Prefetch(2)
		it, _ := ds.MakeIterator()
		var err error
		hist, err = model.Fit(th, m.Env, it, keras.FitOptions{Steps: 4, Callbacks: []keras.Callback{tb}})
		if err != nil {
			t.Error(err)
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	return &ProfileData{
		Run:            "stream-test",
		History:        hist,
		Analysis:       h.Last,
		Space:          tb.Space,
		SessionStartNs: tb.Session.StartNs,
	}
}

func TestOverviewText(t *testing.T) {
	p := profiledRun(t)
	out := p.OverviewText()
	for _, want := range []string{"steps sampled:", "waiting for input:", "INPUT BOUND"} {
		if !strings.Contains(out, want) {
			t.Fatalf("overview missing %q:\n%s", want, out)
		}
	}
	empty := &ProfileData{Run: "x"}
	if !strings.Contains(empty.OverviewText(), "no step data") {
		t.Fatal("empty overview")
	}
}

func TestInputPipelineText(t *testing.T) {
	p := profiledRun(t)
	out := p.InputPipelineText()
	for _, want := range []string{
		"read bandwidth:", "access pattern", "zero-length reads:",
		"read size distribution", "file size distribution",
		"top files by read time", "opens=32 reads=64",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("input pipeline missing %q:\n%s", want, out)
		}
	}
	noAnalysis := &ProfileData{Run: "x"}
	if !strings.Contains(noAnalysis.InputPipelineText(), "unavailable") {
		t.Fatal("missing-analysis text")
	}
}

func TestTraceViewerText(t *testing.T) {
	p := profiledRun(t)
	out := p.TraceViewerText(5, 5)
	if !strings.Contains(out, "tf-darshan(POSIX)") {
		t.Fatalf("traceviewer missing darshan plane:\n%s", out)
	}
	if !strings.Contains(out, "length=0") {
		t.Fatal("zero-length reads not visible in timelines")
	}
}

func TestBandwidthComparisonText(t *testing.T) {
	ser := &stats.Series{Name: "sda:readMBps"}
	ser.Add(1, 12.5)
	ser.Add(2, 13.0)
	out := BandwidthComparisonText(ser, []float64{1.5}, []float64{12.7})
	if !strings.Contains(out, "dstat") || !strings.Contains(out, "tf-Darshan") {
		t.Fatalf("comparison missing series:\n%s", out)
	}
}

func TestServerPages(t *testing.T) {
	p := profiledRun(t)
	srv := httptest.NewServer(NewServer(map[string]*ProfileData{"stream-test": p, "no-trace": {Run: "no-trace"}}))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/")
	if code != 200 || !strings.Contains(body, "stream-test") {
		t.Fatalf("index: %d\n%s", code, body)
	}
	code, body = get("/run/stream-test/overview")
	if code != 200 || !strings.Contains(body, "INPUT BOUND") {
		t.Fatalf("overview: %d", code)
	}
	code, body = get("/run/stream-test/input_pipeline")
	if code != 200 || !strings.Contains(body, "read bandwidth") {
		t.Fatalf("input pipeline: %d", code)
	}
	code, body = get("/run/stream-test/timelines")
	if code != 200 || !strings.Contains(body, "pread") {
		t.Fatalf("timelines: %d", code)
	}
	code, body = get("/run/stream-test/trace.json.gz")
	art, err := core.Export(p.Space, p.Analysis, p.SessionStartNs)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || body != string(art.TraceJSONGz) {
		t.Fatalf("trace: %d, %d bytes, Export's trace.json.gz %d bytes", code, len(body), len(art.TraceJSONGz))
	}
	code, body = get("/run/stream-test/profile.pb")
	if code != 200 || len(body) == 0 {
		t.Fatalf("profile.pb: %d", code)
	}
	if code, _ := get("/run/no-trace/trace.json.gz"); code != 404 {
		t.Fatalf("run without a trace: %d", code)
	}
	if code, _ := get("/run/missing/overview"); code != 404 {
		t.Fatalf("missing run: %d", code)
	}
	if code, _ := get("/run/stream-test/bogus"); code != 404 {
		t.Fatalf("bogus page: %d", code)
	}
	if code, _ := get("/nothing"); code != 404 {
		t.Fatalf("bad path: %d", code)
	}
}

// TestTopFilesMatchesSortedCopy: sorting an index of the per-file rows
// picks the same rows, in the same order, as sorting a copy of them,
// ties included.
func TestTopFilesMatchesSortedCopy(t *testing.T) {
	for _, n := range []int{0, 3, 5, 12, 300} {
		a := &core.SessionStats{PerFile: make([]core.FileStats, n)}
		for i := range a.PerFile {
			a.PerFile[i] = core.FileStats{Name: fmt.Sprintf("/f%03d", i), Reads: int64(i), ReadTime: float64(i*7%5) * 1e-3}
		}
		files := append([]core.FileStats(nil), a.PerFile...)
		sort.Slice(files, func(i, j int) bool { return files[i].ReadTime > files[j].ReadTime })
		var want []string
		for _, f := range files[:min(n, 5)] {
			want = append(want, fmt.Sprintf("%-50s %8.3fms %3d reads %10d bytes", f.Name, f.ReadTime*1e3, f.Reads, f.BytesRead))
		}
		if got := topFilesByReadTime(a, 5); !slices.Equal(got, want) {
			t.Fatalf("%d files: top rows\n%q\nwant\n%q", n, got, want)
		}
	}
}
