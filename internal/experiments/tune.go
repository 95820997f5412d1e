package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/distributed"
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
// epoch must read the same bytes as the untuned baseline.

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

// TuneResult is the rank-aware tuning experiment.
type TuneResult = table[TuneRow]

var tuneTable = &tableSpec[TuneRow]{
	id:    "tune",
	title: "Rank-aware tuning and per-rank staging over merged logs (untuned baseline: 4 threads/rank, shared Lustre)",
	cols: []column[TuneRow]{
		{head: "ranks", width: 5, verb: "%5d", cell: func(r TuneRow) any { return r.Ranks }},
		{head: "untuned(s)", width: 11, verb: "%11.2f", cell: func(r TuneRow) any { return r.UntunedEpochSec }, metric: "untuned_epoch_s"},
		{head: "tuned(s)", width: 9, verb: "%9.2f", cell: func(r TuneRow) any { return r.TunedEpochSec }, metric: "tuned_epoch_s"},
		{head: "speedup", width: 8, verb: "%7.2fx", cell: func(r TuneRow) any { return ratio(r.UntunedEpochSec, r.TunedEpochSec) }, metric: "speedup_x"},
		{head: "pfs-threads", width: 14, verb: "%s", cell: func(r TuneRow) any {
			return fmt.Sprintf("%8d(<-%2d)", r.LustreThreads, r.LustreGreedy)
		}, metric: "lustre_threads", value: func(r TuneRow) float64 { return float64(r.LustreThreads) }},
		{head: "knee", width: 5, verb: "%5s", cell: func(r TuneRow) any {
			if r.LustreKnee {
				return "yes"
			}
			return "-"
		}, metric: "mds_knee", value: func(r TuneRow) float64 {
			if r.LustreKnee {
				return 1
			}
			return 0
		}},
		{head: "nvme-threads", width: 13, verb: "%13d", cell: func(r TuneRow) any { return r.Threads }, metric: "tuned_threads"},
		{head: "prefetch", width: 9, verb: "%9d", cell: func(r TuneRow) any { return r.Prefetch }, metric: "tuned_prefetch"},
		{head: "staged-files", width: 13, verb: "%13d", cell: func(r TuneRow) any { return r.StagedFiles }, metric: "staged_files"},
		{metric: "untuned_agg_MBps", value: func(r TuneRow) float64 { return r.UntunedAggMBps }},
		{metric: "tuned_agg_MBps", value: func(r TuneRow) float64 { return r.TunedAggMBps }},
		{metric: "epoch_delta_s", value: func(r TuneRow) float64 { return r.UntunedEpochSec - r.TunedEpochSec }},
	},
	key: func(r TuneRow) string { return ranksKey(r.Ranks) },
}

// tuneProbe is the cluster tuner's probe: a short lockstep window on a
// fresh cluster (staged first when advices is set), summarized from the
// merged cross-rank profile.
func tuneProbe(c Config, ranks int, advices []*core.StagingAdvice) core.ClusterProbeFunc {
	return func(threads, prefetch int) (core.ClusterObservation, error) {
		res, err := c.runCluster(clusterRun{ranks: ranks, staging: advices, shape: func(o *distributed.Options) {
			o.Threads, o.Prefetch, o.ProbeSteps = threads, prefetch, tuneProbeSteps
		}})
		if err != nil {
			return core.ClusterObservation{}, err
		}
		return core.ClusterObservation{
			EpochSeconds:     res.WallSeconds,
			MetaTimeSeconds:  res.Merged.TotalPosixF(darshan.POSIX_F_META_TIME),
			AggBandwidthMBps: res.aggMBps(),
		}, nil
	}
}

// tunePoint executes one rank count: untuned baseline, staging advice,
// both tuner passes and the tuned epoch.
func (c Config) tunePoint(ranks int) (rows []TuneRow, err error) {
	defer wrapErr(&err, "tune: ranks=%d", ranks)
	// Untuned baseline: the exact configuration of the ranks table, whose
	// profile yields the per-rank staging plans.
	untuned, advices, err := c.clusterStaging(ranks)
	if err != nil {
		return nil, err
	}
	row := TuneRow{Ranks: ranks, UntunedEpochSec: untuned.WallSeconds, UntunedAggMBps: untuned.aggMBps()}
	for _, adv := range advices {
		row.StagedFiles += adv.FileCount
		row.StagedBytes += adv.Bytes
	}

	// Tuner pass 1, shared Lustre: the merged meta-time knee backs the
	// per-rank threads off the bandwidth-greedy pick.
	lustre, err := core.NewClusterTuner(ranks, 1, tuneMaxThreads).Tune(1, tuneProbe(c, ranks, nil), tuneMaxProbes)
	if err != nil {
		return nil, err
	}
	row.LustreGreedy = lustre.BandwidthThreads
	row.LustreThreads = lustre.ThreadsPerRank()
	row.LustreKnee = lustre.KneeDetected

	// Tuner pass 2, staged layout: pick the configuration the tuned
	// epoch actually runs.
	staged, err := core.NewClusterTuner(ranks, 1, tuneMaxThreads).Tune(1, tuneProbe(c, ranks, advices), tuneMaxProbes)
	if err != nil {
		return nil, err
	}
	row.Threads = staged.ThreadsPerRank()
	row.Prefetch = staged.PrefetchPerRank()
	row.Probes = len(lustre.History) + len(staged.History)

	// Tuned epoch: staged layout, the tuner's per-rank threads/prefetch.
	tuned, err := c.runCluster(clusterRun{ranks: ranks, staging: advices, sameAs: untuned, shape: func(o *distributed.Options) {
		o.Threads, o.Prefetch = row.Threads, row.Prefetch
	}})
	if err != nil {
		return nil, err
	}
	row.TunedEpochSec = tuned.WallSeconds
	row.TunedAggMBps = tuned.aggMBps()
	return []TuneRow{row}, nil
}

// TuneExperiment sweeps the rank ladder and reports untuned vs tuned
// epoch time per rank count.
func TuneExperiment(c Config) (*TuneResult, error) {
	return sweep(c, tuneTable, c.ladder(DefaultRankSweep), c.tunePoint)
}
