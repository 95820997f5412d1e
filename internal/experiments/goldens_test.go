package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/workload"
)

// -update regenerates the committed merged reference log under testdata/
// (go test ./internal/experiments -update).
var update = flag.Bool("update", false, "rewrite testdata reference logs")

const mergedRefLog = "merged4.darshan.log"

// goldenClusterRun executes a small fully deterministic ranks=4 cluster
// job: 8 private shard files plus one manifest every rank reads before
// training, so the merged log exhibits everything the format carries —
// nprocs=4, per-rank records, one rank −1 shared record, and a
// rank-attributed DXT timeline. It is the byte source of
// testdata/merged4.darshan.log, the committed input of the parser golden
// tests.
func goldenClusterRun(t *testing.T) *distributed.Result {
	t.Helper()
	cluster := platform.NewKebnekaiseCluster(4, platform.Options{PreloadDarshan: true})
	dir := platform.KebnekaiseLustre + "/golden"
	manifest := dir + "/MANIFEST"
	if _, err := cluster.FS.CreateFile(manifest, 4096); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("%s/img%02d.jpg", dir, i)
		if _, err := cluster.FS.CreateFile(p, int64(24+8*i)*1024); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	res, err := distributed.Run(cluster, paths, distributed.Options{
		Threads: 2, Batch: 2, Prefetch: 2, Shuffle: 7,
		MapFn:       workload.StreamMap,
		SharedPaths: []string{manifest},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMergedReferenceLogUpToDate regenerates the committed merged
// reference log from the golden cluster run and fails if the bytes
// drifted from testdata/. Run with -update after an intentional format
// change (then refresh the cmd/darshan-parser and cmd/dxt-parser
// goldens too).
func TestMergedReferenceLogUpToDate(t *testing.T) {
	logs, err := goldenClusterRun(t).SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	got := logs.Merged
	path := filepath.Join("testdata", mergedRefLog)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing reference log (regenerate with: go test ./internal/experiments -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("testdata/%s drifted from generated output (%d vs %d bytes); "+
			"if the change is intentional, re-run with -update and refresh the parser goldens",
			mergedRefLog, len(want), len(got))
	}

	// The committed artifact must carry the full merged-format surface:
	// nprocs=4, a rank −1 shared record, and DXT attributed to all ranks.
	m, err := darshan.ReadMergedLog(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if m.NProcs != 4 {
		t.Fatalf("nprocs = %d", m.NProcs)
	}
	shared := 0
	for i := range m.Posix {
		if m.Posix[i].Rank == darshan.MergedRank {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("shared records = %d, want the manifest alone", shared)
	}
	ranksSeen := map[int]bool{}
	for _, s := range m.Timeline {
		ranksSeen[s.Rank] = true
	}
	if len(ranksSeen) != 4 {
		t.Fatalf("timeline attributes %d ranks, want 4", len(ranksSeen))
	}
}

// TestDistributedArtifacts covers the cmd/tfdarshan "artifacts
// distributed" path: merged log plus per-rank logs, all decodable.
func TestDistributedArtifacts(t *testing.T) {
	art, err := ProduceArtifacts(Config{Scale: 0.02, Ranks: 2}, "distributed")
	if err != nil {
		t.Fatal(err)
	}
	if art.TraceJSONGz != nil || art.ProfilePB != nil {
		t.Fatal("distributed artifacts should carry logs only")
	}
	m, err := darshan.ReadMergedLog(bytes.NewReader(art.DarshanLog))
	if err != nil {
		t.Fatal(err)
	}
	if m.NProcs != 2 {
		t.Fatalf("nprocs = %d", m.NProcs)
	}
	if len(art.PerRankLogs) != 2 {
		t.Fatalf("per-rank logs = %d", len(art.PerRankLogs))
	}
	for r, b := range art.PerRankLogs {
		log, err := darshan.ReadLog(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if log.Merged || log.NProcs != 1 {
			t.Fatalf("rank %d log header: merged %v nprocs %d", r, log.Merged, log.NProcs)
		}
	}
}
