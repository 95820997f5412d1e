package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/workload"
)

// This file is the tune experiment: the loop the paper's §VII only
// sketches, closed end to end at cluster scale. Per rank count it (1)
// runs the untuned baseline every row of the ranks table uses (4
// threads/rank on shared Lustre), (2) feeds the per-rank Darshan
// snapshots to core.AdviseClusterStaging so each rank's small-file shard
// is staged to its node-local NVMe (the Clairvoyant-Prefetching move),
// (3) lets core.ClusterTuner probe short distributed windows on both
// layouts — on shared Lustre the merged POSIX_F_META_TIME exposes the MDS
// saturation knee and the tuner backs per-rank threads off the greedy
// choice; on the staged layout it picks the final per-rank
// threads/prefetch — and (4) re-runs the full epoch tuned. The tuned
// epoch must beat the untuned baseline measurably.

const (
	// tuneProbeSteps is the lockstep window length of one tuning probe.
	tuneProbeSteps = 4
	// tuneMaxProbes bounds the hill-climb probes per layout.
	tuneMaxProbes = 8
	// tuneMaxThreads caps per-rank map parallelism at the node's cores.
	tuneMaxThreads = 28
)

// TuneRow is one rank count of the tuned-vs-untuned table.
type TuneRow struct {
	Ranks int
	// Untuned is the fixed 4-threads/rank shared-Lustre baseline.
	UntunedEpochSec float64
	UntunedAggMBps  float64
	// Tuned is the staged layout under the tuner's per-rank choice.
	TunedEpochSec float64
	TunedAggMBps  float64
	// LustreGreedy/LustreThreads are the bandwidth-greedy and
	// knee-backed-off per-rank thread picks on the shared-Lustre layout;
	// LustreKnee reports whether the merged profile showed the MDS knee.
	LustreGreedy  int
	LustreThreads int
	LustreKnee    bool
	// Threads/Prefetch are the per-rank picks on the staged layout, the
	// configuration the tuned epoch runs.
	Threads  int
	Prefetch int
	// StagedFiles/StagedBytes aggregate the per-rank staging plans.
	StagedFiles int
	StagedBytes int64
	// Probes counts tuning windows across both layouts.
	Probes int
}

// SpeedupX returns untuned/tuned epoch time.
func (r *TuneRow) SpeedupX() float64 {
	if r.TunedEpochSec == 0 {
		return 0
	}
	return r.UntunedEpochSec / r.TunedEpochSec
}

// TuneResult is the rank-aware tuning experiment.
type TuneResult struct {
	Rows []TuneRow
}

// ID implements Result.
func (r *TuneResult) ID() string { return "tune" }

// Render implements Result.
func (r *TuneResult) Render() string {
	var b strings.Builder
	b.WriteString("Rank-aware tuning and per-rank staging over merged logs (untuned baseline: 4 threads/rank, shared Lustre)\n")
	fmt.Fprintf(&b, "  %5s %11s %9s %8s %14s %5s %13s %9s %13s\n",
		"ranks", "untuned(s)", "tuned(s)", "speedup", "pfs-threads", "knee", "nvme-threads", "prefetch", "staged-files")
	for _, row := range r.Rows {
		knee := "-"
		if row.LustreKnee {
			knee = "yes"
		}
		fmt.Fprintf(&b, "  %5d %11.2f %9.2f %7.2fx %8d(<-%2d) %5s %13d %9d %13d\n",
			row.Ranks, row.UntunedEpochSec, row.TunedEpochSec, row.SpeedupX(),
			row.LustreThreads, row.LustreGreedy, knee, row.Threads, row.Prefetch, row.StagedFiles)
	}
	return b.String()
}

// Metrics implements Result.
func (r *TuneResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		p := fmt.Sprintf("ranks%d_", row.Ranks)
		out[p+"untuned_epoch_s"] = row.UntunedEpochSec
		out[p+"tuned_epoch_s"] = row.TunedEpochSec
		out[p+"untuned_agg_MBps"] = row.UntunedAggMBps
		out[p+"tuned_agg_MBps"] = row.TunedAggMBps
		out[p+"epoch_delta_s"] = row.UntunedEpochSec - row.TunedEpochSec
		out[p+"speedup_x"] = row.SpeedupX()
		out[p+"lustre_threads"] = float64(row.LustreThreads)
		out[p+"tuned_threads"] = float64(row.Threads)
		out[p+"tuned_prefetch"] = float64(row.Prefetch)
		out[p+"staged_files"] = float64(row.StagedFiles)
		knee := 0.0
		if row.LustreKnee {
			knee = 1
		}
		out[p+"mds_knee"] = knee
	}
	return out
}

// applyClusterStaging migrates every rank's advised files to that rank's
// node-local fast mount (the between-runs `mv` of Fig. 11b, per node).
func applyClusterStaging(cluster *platform.Cluster, advices []*core.StagingAdvice) error {
	for r, adv := range advices {
		if adv == nil {
			continue
		}
		if _, err := core.ApplyStaging(cluster.FS, adv, cluster.Nodes[r].FastMount); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// runTuneWindow builds a fresh cluster, optionally applies the staging
// plans (the generated namespace is deterministic, so plans transfer
// across cluster instances), and runs one distributed window.
func runTuneWindow(c Config, ranks int, advices []*core.StagingAdvice, shape func(*distributed.Options)) (*distributed.Result, error) {
	cluster, d, err := buildImageNetCluster(c, ranks)
	if err != nil {
		return nil, err
	}
	if advices != nil {
		if err := applyClusterStaging(cluster, advices); err != nil {
			return nil, err
		}
	}
	opts := untunedClusterOptions(c)
	if shape != nil {
		shape(&opts)
	}
	return distributed.Run(cluster, d.Paths, opts)
}

// tuneProbe adapts runTuneWindow into the cluster tuner's probe: a short
// lockstep window summarized from the merged cross-rank profile.
func tuneProbe(c Config, ranks int, advices []*core.StagingAdvice) core.ClusterProbeFunc {
	return func(threads, prefetch int) (core.ClusterObservation, error) {
		res, err := runTuneWindow(c, ranks, advices, func(o *distributed.Options) {
			o.Threads, o.Prefetch = threads, prefetch
			o.ProbeSteps = tuneProbeSteps
		})
		if err != nil {
			return core.ClusterObservation{}, err
		}
		obs := core.ClusterObservation{
			EpochSeconds:    res.WallSeconds,
			MetaTimeSeconds: res.Merged.TotalPosixF(darshan.POSIX_F_META_TIME),
		}
		if res.WallSeconds > 0 {
			obs.AggBandwidthMBps = float64(res.Merged.TotalPosix(darshan.POSIX_BYTES_READ)) / 1e6 / res.WallSeconds
		}
		return obs, nil
	}
}

// adviseTuneStaging derives the per-rank staging plans from the untuned
// run's job-end snapshots and verifies each plan stages only files of
// that rank's shard, within the node NVMe capacity. A violated plan fails
// the experiment rather than silently staging another rank's data.
func adviseTuneStaging(c Config, ranks int, cluster *platform.Cluster, d *workload.Dataset, res *distributed.Result) ([]*core.StagingAdvice, error) {
	snaps := make([]*darshan.Snapshot, ranks)
	for r := range res.PerRank {
		snaps[r] = res.PerRank[r].Snapshot
	}
	capacity := cluster.Nodes[0].Optane.Capacity()
	advices := core.AdviseClusterStaging(snaps, core.ClusterStagingOptions{
		PerNodeCapacity: capacity,
		Objective:       core.StagingMetadataBound,
		SizeOf: func(p string) (int64, bool) {
			ino, ok := cluster.FS.Lookup(p)
			if !ok {
				return 0, false
			}
			return ino.Size, true
		},
	})
	shards := distributed.Shards(d.Paths, untunedClusterOptions(c).Shuffle, ranks)
	for r, adv := range advices {
		shard := shards[r]
		sort.Strings(shard)
		for _, p := range adv.Files {
			i := sort.SearchStrings(shard, p)
			if i >= len(shard) || shard[i] != p {
				return nil, fmt.Errorf("tune: ranks=%d: rank %d plan stages %s outside its shard", ranks, r, p)
			}
		}
		if adv.Bytes > capacity {
			return nil, fmt.Errorf("tune: ranks=%d: rank %d plan (%d bytes) exceeds node NVMe capacity %d",
				ranks, r, adv.Bytes, capacity)
		}
	}
	return advices, nil
}

// runTunePoint executes one rank count: untuned baseline, staging advice,
// both tuner passes and the tuned epoch.
func runTunePoint(c Config, ranks int) (TuneRow, error) {
	// Untuned baseline: the exact configuration of the ranks table.
	cluster, d, err := buildImageNetCluster(c, ranks)
	if err != nil {
		return TuneRow{}, err
	}
	untuned, err := distributed.Run(cluster, d.Paths, untunedClusterOptions(c))
	if err != nil {
		return TuneRow{}, err
	}
	row := TuneRow{Ranks: ranks, UntunedEpochSec: untuned.WallSeconds}
	untunedBytes := untuned.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	if untuned.WallSeconds > 0 {
		row.UntunedAggMBps = float64(untunedBytes) / 1e6 / untuned.WallSeconds
	}

	// Per-rank staging plans from the untuned profile.
	advices, err := adviseTuneStaging(c, ranks, cluster, d, untuned)
	if err != nil {
		return TuneRow{}, err
	}
	for _, adv := range advices {
		row.StagedFiles += adv.FileCount
		row.StagedBytes += adv.Bytes
	}

	// Tuner pass 1, shared Lustre: the merged meta-time knee backs the
	// per-rank threads off the bandwidth-greedy pick.
	lustre := core.NewClusterTuner(ranks, 1, tuneMaxThreads)
	lustreAdv, err := lustre.Tune(1, tuneProbe(c, ranks, nil), tuneMaxProbes)
	if err != nil {
		return TuneRow{}, fmt.Errorf("tune: ranks=%d: %w", ranks, err)
	}
	row.LustreGreedy = lustreAdv.BandwidthThreads
	row.LustreThreads = lustreAdv.ThreadsPerRank()
	row.LustreKnee = lustreAdv.KneeDetected

	// Tuner pass 2, staged layout: pick the configuration the tuned
	// epoch actually runs.
	staged := core.NewClusterTuner(ranks, 1, tuneMaxThreads)
	stagedAdv, err := staged.Tune(1, tuneProbe(c, ranks, advices), tuneMaxProbes)
	if err != nil {
		return TuneRow{}, fmt.Errorf("tune: ranks=%d: %w", ranks, err)
	}
	row.Threads = stagedAdv.ThreadsPerRank()
	row.Prefetch = stagedAdv.PrefetchPerRank()
	row.Probes = len(lustreAdv.History) + len(stagedAdv.History)

	// Tuned epoch: staged layout, the tuner's per-rank threads/prefetch.
	tuned, err := runTuneWindow(c, ranks, advices, func(o *distributed.Options) {
		o.Threads, o.Prefetch = row.Threads, row.Prefetch
	})
	if err != nil {
		return TuneRow{}, err
	}
	row.TunedEpochSec = tuned.WallSeconds
	tunedBytes := tuned.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	if tunedBytes != untunedBytes {
		return TuneRow{}, fmt.Errorf("tune: ranks=%d: tuned run read %d bytes, untuned %d — not the same epoch",
			ranks, tunedBytes, untunedBytes)
	}
	if tuned.WallSeconds > 0 {
		row.TunedAggMBps = float64(tunedBytes) / 1e6 / tuned.WallSeconds
	}
	return row, nil
}

// TuneExperiment sweeps the rank ladder and reports untuned vs tuned
// epoch time per rank count. Sweep points build independent clusters, so
// they run concurrently under Config.Parallel with rows assembled in
// ladder order (byte-identical to a serial run).
func TuneExperiment(c Config) (*TuneResult, error) {
	sweep := c.rankSweep()
	rows := make([]TuneRow, len(sweep))
	err := runIndexed(c.Parallel, len(sweep), func(i int) error {
		var err error
		rows[i], err = runTunePoint(c, sweep[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return &TuneResult{Rows: rows}, nil
}
