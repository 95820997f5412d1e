package darshan

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSummarize(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/a", 100_000)
	r.fs.CreateFile("/data/b", 2_000_000)
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/a", 1<<20)
		readWholeFileTFStyle(th, r.c, "/data/b", 1<<20)
		// The simulated process writes only through STDIO, but the log
		// format and Summarize still carry POSIX write counters: fill in
		// a write-only file's record directly.
		out := r.rt.Posix.recordFor(th, "/data/out")
		out.Counters[POSIX_OPENS] = 1
		out.Counters[POSIX_WRITES] = 1
		out.Counters[POSIX_BYTES_WRITTEN] = 5000
		out.FCounters[POSIX_F_WRITE_TIME] = 0.001
	})
	var buf bytes.Buffer
	if err := writeLog(&buf, r.rt, 2.5); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(log)
	if s.TotalBytesRead != 2_100_000 || s.TotalBytesWritten != 5000 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.TotalFiles != 3 || s.ReadOnlyFiles != 2 || s.WriteOnlyFiles != 1 || s.ReadWriteFiles != 0 {
		t.Fatalf("categories: %+v", s)
	}
	if s.AggPerfMBps <= 0 || s.CumulIOSeconds <= 0 {
		t.Fatalf("perf: %+v", s)
	}
	if len(s.TopFiles) != 3 || s.TopFiles[0].Name != "/data/b" {
		t.Fatalf("top files: %+v", s.TopFiles)
	}
	out := s.Render()
	for _, want := range []string{"agg_perf_by_cumul", "read-only: 2", "/data/b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeEmptyLog(t *testing.T) {
	rt := NewRuntime(DefaultConfig(), 0)
	var buf bytes.Buffer
	if err := writeLog(&buf, rt, 0); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(log)
	if s.TotalFiles != 0 || s.AggPerfMBps != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}
