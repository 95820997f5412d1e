package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

const failoverRefLog = "failover2.darshan.log"

// goldenFailoverRun executes a small fully deterministic ranks=2 cluster
// job with one mid-epoch failure, DXT stdio tracing on: 16 shard files,
// checkpoints every other step, rank 1 dying at step 3 and everyone
// rolling back to step 2. Its merged log is the byte source of
// testdata/failover2.darshan.log — the committed input of the
// traceviewer golden (the downtime gap and restore read burst must stay
// visible on the rendered lanes).
func goldenFailoverRun(t *testing.T) *distributed.Result {
	t.Helper()
	cfg := darshan.DefaultConfig()
	cfg.DXTStdio = true
	cluster := platform.NewKebnekaiseCluster(2, platform.Options{PreloadDarshan: true, DarshanConfig: &cfg})
	dir := platform.KebnekaiseLustre + "/golden"
	var paths []string
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("%s/img%02d.jpg", dir, i)
		if _, err := cluster.FS.CreateFile(p, int64(24+8*i)*1024); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	res, err := distributed.Run(cluster, paths, distributed.Options{
		Threads: 2, Batch: 2, Prefetch: 2, Shuffle: 7,
		// A model with real parameters so the checkpoint writes (and the
		// restore read burst) carry visible bytes on the DXT timeline.
		Model:      workload.AlexNet,
		MapFn:      workload.ImageNetMap,
		Checkpoint: distributed.CheckpointPolicy{Pattern: distributed.CkptRank0, EverySteps: 2, Dir: failoverCkptDir},
		Failures:   []distributed.FailureEvent{{Rank: 1, Step: 3, RebootDelay: 2 * sim.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFailoverReferenceLogUpToDate regenerates the committed failover
// reference log and fails on drift (refresh with -update, then the
// cmd/traceviewer goldens).
func TestFailoverReferenceLogUpToDate(t *testing.T) {
	res := goldenFailoverRun(t)
	logs, err := res.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", failoverRefLog)
	if *update {
		if err := os.WriteFile(path, logs.Merged, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing reference log (regenerate with: go test ./internal/experiments -update): %v", err)
	}
	if !bytes.Equal(logs.Merged, want) {
		t.Fatalf("testdata/%s drifted from generated output (%d vs %d bytes); "+
			"if the change is intentional, re-run with -update and refresh the traceviewer goldens",
			failoverRefLog, len(want), len(logs.Merged))
	}

	// The committed artifact must carry the failure surface: one recovery,
	// checkpoint writes AND restore reads on the stdio-traced timeline.
	if len(res.Failures) != 1 || res.Failures[0].CheckpointStep != 2 {
		t.Fatalf("failures %+v, want one rollback to step 2", res.Failures)
	}
	m, err := darshan.ReadLog(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Merged {
		t.Fatal("failover reference log is not a merged log")
	}
	var ckptReads, ckptWrites int
	for _, s := range m.Timeline {
		if !strings.HasPrefix(m.Names[s.ID], failoverCkptDir+"/") {
			continue
		}
		if s.Write {
			ckptWrites++
		} else {
			ckptReads++
		}
	}
	if ckptReads == 0 || ckptWrites == 0 {
		t.Fatalf("timeline carries %d ckpt reads / %d ckpt writes, want both > 0", ckptReads, ckptWrites)
	}
}

// TestFailoverExperiment pins the experiment surface at test scale: a
// positive recovery cost over the no-failure baseline and the headline
// metric.
func TestFailoverExperiment(t *testing.T) {
	res, err := FailoverExperiment(Config{Scale: 0.02, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row.RestoreDeltaSec <= 0 {
		t.Fatalf("failure cost %.3fs, want > 0", row.RestoreDeltaSec)
	}
	if row.DowntimeSec < sim.Seconds(failoverRebootDelay) {
		t.Fatalf("downtime %.3fs, want >= reboot delay", row.DowntimeSec)
	}
	if row.CkptBytesAll != int64(row.Ranks)*row.CkptBytesRank0 {
		t.Fatalf("rank factor violated: %d vs %d x %d", row.CkptBytesAll, row.Ranks, row.CkptBytesRank0)
	}
	if _, ok := res.Metrics()["failover_restore_delta_s"]; !ok {
		t.Fatal("headline failover_restore_delta_s metric missing")
	}
}

// TestFailoverTooShort: an epoch too short to fail mid-way errors rather
// than scheduling an impossible failure.
func TestFailoverTooShort(t *testing.T) {
	if _, err := FailoverExperiment(Config{Scale: 0.0001, Ranks: 8}); err == nil {
		t.Fatal("accepted a schedule with no room for a mid-epoch failure")
	}
}
