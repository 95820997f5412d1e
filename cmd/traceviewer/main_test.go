package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/darshan"
	"repro/internal/tf/profiler"
	"repro/internal/trace"
)

// -update regenerates the golden stdout transcripts under testdata/ from
// the committed reference logs (go test ./cmd/traceviewer -update).
var update = flag.Bool("update", false, "rewrite testdata golden files")

const (
	singleLog   = "../../internal/darshan/testdata/single.darshan.log"
	mergedLog   = "../../internal/experiments/testdata/merged4.darshan.log"
	failoverLog = "../../internal/experiments/testdata/failover2.darshan.log"
)

func runGolden(t *testing.T, name string, args []string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with: go test ./cmd/traceviewer -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: viewer output drifted from testdata/%s.golden; re-run with -update if intentional", name, name)
	}
	return buf.String()
}

// writeTraceFixture writes a deterministic two-thread trace.json.gz into
// a temp dir and returns its path — the input for the trace-format
// golden. Built from an XSpace so it exercises the same conversion the
// profiler export uses.
func writeTraceFixture(t *testing.T) string {
	t.Helper()
	space := &profiler.XSpace{Planes: []*profiler.XPlane{{
		Name: "/host:CPU",
		Lines: []*profiler.XLine{
			{ID: 1, Name: "tf_data_iterator", Events: []profiler.XEvent{
				{Name: "IteratorGetNext", StartNs: 1_000_000, DurNs: 2_000_000},
				{Name: "IteratorGetNext", StartNs: 4_000_000, DurNs: 1_000_000},
				{Name: "IteratorGetNext", StartNs: 6_000_000, DurNs: 3_000_000},
			}},
			{ID: 2, Name: "posix_io", Events: []profiler.XEvent{
				{Name: "read", StartNs: 1_200_000, DurNs: 500_000},
			}},
		},
	}}}
	p := filepath.Join(t.TempDir(), "trace.json.gz")
	out, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := trace.WriteJSONGz(out, space, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGoldenMergedLanes(t *testing.T) {
	out := runGolden(t, "merged4_lanes", []string{mergedLog})
	for _, want := range []string{
		"=== darshan merged log: nprocs 4,",
		"rank 0 |",
		"rank 3 |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged lane view missing %q:\n%s", want, out)
		}
	}
}

// TestGoldenFailoverLanes is the acceptance transcript for the failure
// path: on the committed failover log (rank 1 dies mid-epoch, 2s reboot,
// rollback to the step-2 checkpoint) the victim's lane must report an
// idle gap at least as long as the reboot delay, and both ranks must
// show read and write activity (shard reads, checkpoint writes, restore
// reads).
func TestGoldenFailoverLanes(t *testing.T) {
	out := runGolden(t, "failover2_lanes", []string{failoverLog})
	if !strings.Contains(out, "=== darshan merged log: nprocs 2,") {
		t.Fatalf("failover lane view missing header:\n%s", out)
	}
	victim := laneDetail(t, out, 1)
	gap := gapSeconds(t, victim)
	if gap < 2.0 {
		t.Fatalf("victim rank 1 largest gap %.3fs, want >= 2s reboot downtime:\n%s", gap, out)
	}
	survivor := laneDetail(t, out, 0)
	if gapSeconds(t, survivor) >= gap {
		t.Fatalf("survivor rank 0 gap not smaller than victim's:\n%s", out)
	}
	// Under the rank-0 checkpoint pattern, rank 0 carries the checkpoint
	// writes; both ranks carry shard + restore reads.
	if strings.Contains(survivor, "write 0.0KB") {
		t.Fatalf("rank 0 lane missing checkpoint writes: %s", survivor)
	}
	if !strings.Contains(victim, "write 0.0KB") {
		t.Fatalf("rank 1 wrote under the rank-0 pattern: %s", victim)
	}
	for rank, detail := range map[int]string{0: survivor, 1: victim} {
		if strings.Contains(detail, "read 0.0KB") {
			t.Fatalf("rank %d lane missing reads: %s", rank, detail)
		}
	}
}

// laneDetail returns the stats line printed under "rank <r> |...|".
func laneDetail(t *testing.T, out string, rank int) string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "rank "+string(rune('0'+rank))+" |") && i+1 < len(lines) {
			return lines[i+1]
		}
	}
	t.Fatalf("no lane for rank %d:\n%s", rank, out)
	return ""
}

// gapSeconds extracts the "largest gap <s>s" figure from a lane detail.
func gapSeconds(t *testing.T, detail string) float64 {
	t.Helper()
	const marker = "largest gap "
	i := strings.Index(detail, marker)
	if i < 0 {
		t.Fatalf("lane detail has no gap: %s", detail)
	}
	var gap float64
	if _, err := fmt.Sscanf(detail[i+len(marker):], "%f", &gap); err != nil {
		t.Fatalf("unparseable gap in %q: %v", detail, err)
	}
	return gap
}

func TestGoldenSingleLanes(t *testing.T) {
	out := runGolden(t, "single_lanes", []string{"-cols", "48", singleLog})
	if !strings.Contains(out, "=== darshan single log: nprocs 1,") {
		t.Fatalf("single lane view missing header:\n%s", out)
	}
	if !strings.Contains(out, "rank 0 |") {
		t.Fatalf("single lane view missing lane:\n%s", out)
	}
}

// TestGoldenTraceJSON pins the legacy trace.json.gz rendering through the
// same run() entry point: a deterministic two-thread document written by
// the trace package itself.
func TestGoldenTraceJSON(t *testing.T) {
	path := writeTraceFixture(t)
	out := runGolden(t, "trace_small", []string{"-limit", "2", path})
	for _, want := range []string{
		"=== process 1: ",
		"-- thread ",
		"more events",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace view missing %q:\n%s", want, out)
		}
	}
}

func TestUsageAndErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("no-arg run succeeded")
	}
	if err := run([]string{"-cols", "0", failoverLog}, &buf); err == nil {
		t.Fatal("-cols 0 accepted")
	}
	if err := run([]string{"main_test.go"}, &buf); err == nil {
		t.Fatal("viewing a non-artifact succeeded")
	}
	if err := run([]string{"testdata/no-such-file"}, &buf); err == nil {
		t.Fatal("viewing a missing file succeeded")
	}
	// -h prints flag help and succeeds (exit 0).
	buf.Reset()
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	for _, want := range []string{"-limit", "-cols"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("-h output missing %s docs:\n%s", want, buf.String())
		}
	}
}

// TestMalformedTraceEventErrors: an event that does not decode fails the
// render and names its index instead of being dropped from the view.
func TestMalformedTraceEventErrors(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.trace.json.gz")
	var doc bytes.Buffer
	zw := gzip.NewWriter(&doc)
	fmt.Fprint(zw, `{"traceEvents":[`+
		`{"name":"process_name","ph":"M","pid":1,"args":{"name":"/host:CPU"}},`+
		`{"name":"read","ph":"X","ts":"soon","dur":1,"pid":1,"tid":1},`+
		`{"name":"read","ph":"X","ts":2,"dur":1,"pid":1,"tid":1}]}`)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{p}, &buf)
	if err == nil {
		t.Fatalf("malformed event rendered without error:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("error %q does not name event 1", err)
	}
}

// TestTruncatedDarshanLogErrors: a log cut mid-stream must error through
// the log reader, not render a partial view.
func TestTruncatedDarshanLogErrors(t *testing.T) {
	full, err := os.ReadFile(failoverLog)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "trunc.darshan.log")
	if err := os.WriteFile(p, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{p}, &buf); err == nil {
		t.Fatal("truncated darshan log rendered without error")
	}
}

// TestSharedRankSegmentErrors: the shared-record rank (MergedRank) is
// record-only, so a merged log carrying it on a timeline segment is
// corrupt and must fail the render with ErrBadLog.
func TestSharedRankSegmentErrors(t *testing.T) {
	f, err := os.Open(mergedLog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := darshan.ReadLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	m.Timeline[0].Rank = darshan.MergedRank
	var log bytes.Buffer
	if err := m.Write(&log); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "shared-rank.darshan.log")
	if err := os.WriteFile(p, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{p}, &buf); !errors.Is(err, darshan.ErrBadLog) {
		t.Fatalf("err = %v, want ErrBadLog", err)
	}
}
