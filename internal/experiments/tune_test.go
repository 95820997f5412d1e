package experiments

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/distributed"
)

// TestTuneRanks4BeatsUntunedBaseline is the experiment's acceptance
// criterion: on the ranks=4 sweep point the tuned configuration — each
// rank's small-file shard staged to its node-local NVMe, per-rank
// threads/prefetch picked by cluster probes over the merged profile —
// must finish the epoch strictly faster than the untuned 4-threads/rank
// shared-Lustre baseline, and the shared-Lustre tuner must see the MDS
// saturation knee.
func TestTuneRanks4BeatsUntunedBaseline(t *testing.T) {
	res, err := TuneExperiment(Config{Scale: 0.05, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if !(row.TunedEpochSec < row.UntunedEpochSec) {
		t.Fatalf("tuned epoch %.3fs not better than untuned %.3fs", row.TunedEpochSec, row.UntunedEpochSec)
	}
	if row.StagedFiles == 0 || row.StagedBytes == 0 {
		t.Fatalf("tuned run staged nothing: %+v", row)
	}
	if !row.LustreKnee {
		t.Fatal("shared-Lustre probes did not expose the MDS saturation knee at ranks=4")
	}
	if row.Threads < 1 || row.Prefetch < 0 || row.Probes == 0 {
		t.Fatalf("implausible tuner outcome: %+v", row)
	}
}

// TestTuneStagingPlansStageOnlyTheRanksShard re-derives the per-rank
// plans the experiment applies and checks every staged file belongs to
// that rank's shard — per-rank plans are disjoint, nothing shared (or
// owned by a peer) moves to a node-local tier.
func TestTuneStagingPlansStageOnlyTheRanksShard(t *testing.T) {
	const ranks = 4
	c := Config{Scale: 0.02}
	res, advices, err := c.clusterStaging(ranks)
	if err != nil {
		t.Fatal(err)
	}
	seed := untunedClusterOptions(c).Shuffle
	total := 0
	for r, adv := range advices {
		if adv.FileCount == 0 {
			t.Fatalf("rank %d plan is empty", r)
		}
		shard := map[string]bool{}
		for _, p := range distributed.ShardPaths(res.paths, seed, ranks, r) {
			shard[p] = true
		}
		for _, p := range adv.Files {
			if !shard[p] {
				t.Fatalf("rank %d stages %s, which is not in its shard", r, p)
			}
		}
		total += adv.FileCount
	}
	if total > len(res.paths) {
		t.Fatalf("plans stage %d files from a %d-file corpus", total, len(res.paths))
	}
}

// TestTuneDeterministic: same seed ⇒ byte-identical rendered table, and
// a parallel run is byte-identical to a serial one.
func TestTuneDeterministic(t *testing.T) {
	cfg := Config{Scale: 0.02, Ranks: 4}
	a, err := TuneExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TuneExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("same-seed tune runs differ:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	if !reflect.DeepEqual(a.Metrics(), b.Metrics()) {
		t.Fatalf("same-seed tune metrics differ: %v vs %v", a.Metrics(), b.Metrics())
	}
}

func TestTuneSerialAndParallelIdentical(t *testing.T) {
	serial, err := TuneExperiment(Config{Scale: 0.02, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TuneExperiment(Config{Scale: 0.02, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != parallel.Render() {
		t.Fatalf("parallel tune sweep diverged from serial:\n%s\nvs\n%s",
			serial.Render(), parallel.Render())
	}
}

// TestTuneRanks1DegeneratesToSingleProcessAdvice is the ranks=1 guard:
// driven by the real one-rank cluster probes, the ClusterTuner must pick
// exactly the thread count the single-process AutoTuner picks from the
// same bandwidth observations (no knee backoff), and AdviseClusterStaging
// under the single-process objective must reproduce AdviseStaging over
// the rank's snapshot-derived session stats, byte for byte.
func TestTuneRanks1DegeneratesToSingleProcessAdvice(t *testing.T) {
	c := Config{Scale: 0.02}

	// Tuner degeneracy over the real probe path.
	probe := tuneProbe(c, 1, nil)
	ct := core.NewClusterTuner(1, 1, tuneMaxThreads)
	adv, err := ct.Tune(1, probe, tuneMaxProbes)
	if err != nil {
		t.Fatal(err)
	}
	if adv.KneeDetected {
		t.Fatal("knee backoff fired on a one-rank cluster")
	}
	// The thread walk's probes (History[0] first) run at the tuner's base
	// prefetch depth.
	at := core.NewAutoTuner(1, 1, tuneMaxThreads)
	want, err := at.Tune(func(threads int) (float64, error) {
		obs, err := probe(threads, adv.History[0].Prefetch)
		if err != nil {
			return 0, err
		}
		return obs.AggBandwidthMBps, nil
	}, tuneMaxProbes)
	if err != nil {
		t.Fatal(err)
	}
	if got := adv.Threads; got != want {
		t.Fatalf("one-rank cluster tuner chose %d threads, Autotune chose %d", got, want)
	}

	// Staging degeneracy over a real one-rank run's snapshot.
	res, err := c.runCluster(clusterRun{ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	capacity := res.cluster.Nodes[0].Optane.Capacity()
	snap := res.PerRank[0].Snapshot
	got := core.AdviseClusterStaging([]*darshan.Log{snap}, core.ClusterStagingOptions{
		PerNodeCapacity: capacity,
		Objective:       core.StagingBytesScarce,
		SizeOf:          res.sizeOf,
	})
	single := core.AdviseStaging(core.AnalyzeSnapshot(snap, res.sizeOf), capacity)
	if len(got) != 1 || !reflect.DeepEqual(got[0], single) {
		t.Fatalf("one-rank cluster staging advice diverges from AdviseStaging:\n%+v\nvs\n%+v", got[0], single)
	}
}

// TestTuneMetricsCarryEpochDelta pins the metrics contract: the
// tuned-vs-untuned epoch delta must be reported per rank count so it
// lands in tfdarshan metrics and the cluster experiments' golden.
func TestTuneMetricsCarryEpochDelta(t *testing.T) {
	res, err := TuneExperiment(Config{Scale: 0.02, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, want := range []string{"ranks4_epoch_delta_s", "ranks4_speedup_x", "ranks4_tuned_epoch_s", "ranks4_untuned_epoch_s"} {
		if _, ok := m[want]; !ok {
			t.Fatalf("metric %s missing (have %v)", want, keys)
		}
	}
	if m["ranks4_epoch_delta_s"] <= 0 {
		t.Fatalf("epoch delta %.3f not positive", m["ranks4_epoch_delta_s"])
	}
	got := m["ranks4_untuned_epoch_s"] - m["ranks4_tuned_epoch_s"]
	if got != m["ranks4_epoch_delta_s"] {
		t.Fatalf("delta %.6f inconsistent with epochs (%.6f)", m["ranks4_epoch_delta_s"], got)
	}
}
