package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The failover experiment kills one rank mid-epoch and measures what the
// recovery costs: node downtime, the synchronized rollback to the last
// checkpoint, and the restore read burst every rank fires at the shared
// PFS (the Fig. 6 STDIO capture, now in both directions). Three variants
// per rank count:
//
//   - nofail: checkpoints written (rank-0 pattern) but nobody dies — the
//     epoch-time baseline;
//   - rank0: rank 1 dies at mid-epoch; everyone restores from rank 0's
//     checkpoint files (the shared-read storm);
//   - allranks: same failure, but every rank saved and restores its own
//     checkpoint copy.
//
// The cluster runs with DXT stdio tracing enabled so checkpoint writes
// and restore reads are visible on the merged rank-attributed timeline.

// failoverRebootDelay is the simulated node death-to-rejoin time.
const failoverRebootDelay = 2 * sim.Second

// FailoverRow is one rank count of the failover table.
type FailoverRow struct {
	Ranks int
	Steps int
	// FailStep is the mid-epoch global step the victim dies at.
	FailStep int
	// CheckpointStep is the global step the job rolled back to.
	CheckpointStep int
	// NoFailEpochSec/Rank0EpochSec/AllRanksEpochSec are the three
	// variants' virtual epoch times.
	NoFailEpochSec   float64
	Rank0EpochSec    float64
	AllRanksEpochSec float64
	// RestoreDeltaSec is the failure recovery cost: rank0 epoch time
	// minus the no-failure baseline.
	RestoreDeltaSec float64
	// DowntimeSec is the victim node's death-to-rejoin window.
	DowntimeSec float64
	// RestoreBytes/RestoreMBps describe the rank0 variant's restore read
	// burst (all ranks re-reading the rollback checkpoint at once).
	RestoreBytes int64
	RestoreMBps  float64
	// CkptBytesRank0/CkptBytesAll are total checkpoint bytes written
	// under the two patterns; All is exactly Ranks x Rank0.
	CkptBytesRank0 int64
	CkptBytesAll   int64
	// StragglerSpreadPct is (max-min)/mean of per-rank busy time in the
	// rank0 failure run (the victim's lost work shows up here).
	StragglerSpreadPct float64
	// MergedDarshanLog is the rank0 variant's serialized merged log
	// (Config.KeepLogs only), round-trip verified.
	MergedDarshanLog []byte
}

// FailoverResult is the failure/recovery experiment over the rank ladder.
type FailoverResult struct {
	Rows []FailoverRow
}

// ID implements Result.
func (r *FailoverResult) ID() string { return "failover" }

// Render implements Result.
func (r *FailoverResult) Render() string {
	var b strings.Builder
	b.WriteString("Failure-aware elastic training: mid-epoch rank death, rollback and restore read burst\n")
	fmt.Fprintf(&b, "  %5s %6s %6s %6s %11s %10s %11s %9s %13s %11s\n",
		"ranks", "steps", "fail@", "ckpt@", "nofail(s)", "rank0(s)", "allranks(s)", "delta(s)", "restore MB/s", "straggler%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5d %6d %6d %6d %11.2f %10.2f %11.2f %9.2f %13.2f %10.1f%%\n",
			row.Ranks, row.Steps, row.FailStep, row.CheckpointStep,
			row.NoFailEpochSec, row.Rank0EpochSec, row.AllRanksEpochSec,
			row.RestoreDeltaSec, row.RestoreMBps, row.StragglerSpreadPct)
	}
	return b.String()
}

// Metrics implements Result. The last (largest) rank count additionally
// publishes the headline failover_restore_delta_s tracked per commit in
// the BENCH_<n>.json snapshots.
func (r *FailoverResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		p := fmt.Sprintf("ranks%d_", row.Ranks)
		out[p+"nofail_epoch_s"] = row.NoFailEpochSec
		out[p+"fail_epoch_s"] = row.Rank0EpochSec
		out[p+"failall_epoch_s"] = row.AllRanksEpochSec
		out[p+"restore_delta_s"] = row.RestoreDeltaSec
		out[p+"restore_MBps"] = row.RestoreMBps
		out[p+"downtime_s"] = row.DowntimeSec
	}
	if n := len(r.Rows); n > 0 {
		out["failover_restore_delta_s"] = r.Rows[n-1].RestoreDeltaSec
	}
	return out
}

// failoverCkptDir is the checkpoint directory on the shared Lustre mount.
const failoverCkptDir = platform.KebnekaiseLustre + "/ckpt"

// buildFailoverCluster boots the ImageNet cluster with DXT stdio tracing
// enabled, so the restore read burst and checkpoint writes appear on the
// merged DXT timeline (plain DXT covers POSIX only, and checkpoints ride
// the STDIO layer — Fig. 6).
func buildFailoverCluster(c Config, ranks int) (*platform.Cluster, *workload.Dataset, error) {
	cfg := darshan.DefaultConfig()
	cfg.DXTStdio = true
	cluster := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true, DarshanConfig: &cfg})
	spec := workload.ImageNetSpec(platform.KebnekaiseLustre+"/imagenet", c.Scale)
	d, err := workload.BuildImageNet(cluster.FS, spec)
	if err != nil {
		return nil, nil, err
	}
	return cluster, d, nil
}

// runFailoverVariant executes one variant on a fresh cluster.
func runFailoverVariant(c Config, ranks int, pattern distributed.CheckpointPattern, every int, fail []distributed.FailureEvent) (*distributed.Result, error) {
	cluster, d, err := buildFailoverCluster(c, ranks)
	if err != nil {
		return nil, err
	}
	opts := untunedClusterOptions(c)
	opts.Checkpoint = distributed.CheckpointPolicy{Pattern: pattern, EverySteps: every, Dir: failoverCkptDir}
	opts.Failures = fail
	return distributed.Run(cluster, d.Paths, opts)
}

// ckptTimelineReads counts checkpoint-file reads on the merged DXT
// timeline and returns the earliest one's start time.
func ckptTimelineReads(m *darshan.MergedLog) (reads int, earliest float64) {
	for _, s := range m.Timeline {
		if s.Write || !strings.HasPrefix(m.Names[s.ID], failoverCkptDir+"/") {
			continue
		}
		if reads == 0 || s.Start < earliest {
			earliest = s.Start
		}
		reads++
	}
	return reads, earliest
}

// runFailoverRankCount runs the three variants at one rank count and
// enforces the experiment's invariants as errors: the failure runs must
// report exactly one recovery, restore reads may only appear after the
// failure instant, the all-ranks checkpoint byte total must be exactly
// the rank factor times rank 0's, and the restore burst must re-read the
// written checkpoint on every rank.
func runFailoverRankCount(c Config, ranks int) (FailoverRow, error) {
	// Mid-epoch failure: the victim dies at the start of step s/2+1, with
	// checkpoints spaced so a rollback target exists before it. A throwaway
	// cluster provides the (deterministic) corpus path list the step count
	// is precomputed from.
	_, d, err := buildFailoverCluster(c, ranks)
	if err != nil {
		return FailoverRow{}, err
	}
	opts := untunedClusterOptions(c)
	plan, err := distributed.NewPlan(d.Paths, opts.Shuffle, ranks, 1, opts.Batch)
	if err != nil {
		return FailoverRow{}, err
	}
	steps := plan.Steps
	if steps < 2 {
		return FailoverRow{}, fmt.Errorf("ranks=%d: %d steps is too short to fail mid-epoch (raise -scale)", ranks, steps)
	}
	failStep := steps/2 + 1
	every := failStep / 2
	if every < 1 {
		every = 1
	}
	victim := 0
	if ranks > 1 {
		victim = 1
	}
	fail := []distributed.FailureEvent{{Rank: victim, Step: failStep, RebootDelay: failoverRebootDelay}}

	noFail, err := runFailoverVariant(c, ranks, distributed.CkptRank0, every, nil)
	if err != nil {
		return FailoverRow{}, err
	}
	rank0, err := runFailoverVariant(c, ranks, distributed.CkptRank0, every, fail)
	if err != nil {
		return FailoverRow{}, err
	}
	allRanks, err := runFailoverVariant(c, ranks, distributed.CkptAllRanks, every, fail)
	if err != nil {
		return FailoverRow{}, err
	}

	if len(noFail.Failures) != 0 {
		return FailoverRow{}, fmt.Errorf("ranks=%d: no-failure baseline reported %d failures", ranks, len(noFail.Failures))
	}
	if noFail.Steps != steps || rank0.Steps != steps {
		return FailoverRow{}, fmt.Errorf("ranks=%d: step counts diverged (%d/%d, precomputed %d)", ranks, noFail.Steps, rank0.Steps, steps)
	}

	row := FailoverRow{Ranks: ranks, Steps: steps, FailStep: failStep}
	var ckptBytes [2]int64
	for i, res := range []*distributed.Result{rank0, allRanks} {
		if len(res.Failures) != 1 {
			return FailoverRow{}, fmt.Errorf("ranks=%d: failure run reported %d recoveries, want 1", ranks, len(res.Failures))
		}
		f := res.Failures[0]
		if f.CheckpointStep < 1 {
			return FailoverRow{}, fmt.Errorf("ranks=%d: failure at step %d found no rollback checkpoint", ranks, f.Step)
		}
		// Restore reads only after the failure instant: a checkpoint read
		// on the merged timeline before the death means the recovery
		// protocol leaked I/O into healthy training.
		reads, earliest := ckptTimelineReads(res.Merged)
		if reads == 0 {
			return FailoverRow{}, fmt.Errorf("ranks=%d: no restore reads on the merged timeline", ranks)
		}
		if earliest < f.FailSec {
			return FailoverRow{}, fmt.Errorf("ranks=%d: restore read at %.3fs precedes the failure at %.3fs", ranks, earliest, f.FailSec)
		}
		for r := range res.PerRank {
			ckptBytes[i] += res.PerRank[r].CkptBytes()
		}
	}
	if ckptBytes[0] == 0 || ckptBytes[1] != int64(ranks)*ckptBytes[0] {
		return FailoverRow{}, fmt.Errorf("ranks=%d: all-ranks checkpoints wrote %d bytes, want exactly %d x %d",
			ranks, ckptBytes[1], ranks, ckptBytes[0])
	}
	if rank0.Failures[0].RestoreBytes != allRanks.Failures[0].RestoreBytes {
		return FailoverRow{}, fmt.Errorf("ranks=%d: restore bytes differ between patterns: %d vs %d",
			ranks, rank0.Failures[0].RestoreBytes, allRanks.Failures[0].RestoreBytes)
	}

	f := rank0.Failures[0]
	row.CheckpointStep = f.CheckpointStep
	row.NoFailEpochSec = noFail.WallSeconds
	row.Rank0EpochSec = rank0.WallSeconds
	row.AllRanksEpochSec = allRanks.WallSeconds
	row.RestoreDeltaSec = rank0.WallSeconds - noFail.WallSeconds
	row.DowntimeSec = f.RejoinSec - f.FailSec
	row.RestoreBytes = f.RestoreBytes
	if f.RestoreSeconds > 0 {
		row.RestoreMBps = float64(f.RestoreBytes) / 1e6 / f.RestoreSeconds
	}
	row.CkptBytesRank0 = ckptBytes[0]
	row.CkptBytesAll = ckptBytes[1]
	var busy []float64
	for r := range rank0.PerRank {
		busy = append(busy, float64(rank0.PerRank[r].BusyNs())/1e9)
	}
	s := stats.Summarize(busy)
	if s.Mean > 0 {
		row.StragglerSpreadPct = (s.Max - s.Min) / s.Mean * 100
	}
	if c.KeepLogs {
		logs, err := rank0.SerializeLogs()
		if err != nil {
			return FailoverRow{}, err
		}
		m, err := darshan.ReadMergedLog(bytes.NewReader(logs.Merged))
		if err != nil {
			return FailoverRow{}, fmt.Errorf("ranks=%d: merged failover log does not round-trip: %w", ranks, err)
		}
		if m.NProcs != ranks {
			return FailoverRow{}, fmt.Errorf("ranks=%d: decoded failover log has nprocs %d", ranks, m.NProcs)
		}
		row.MergedDarshanLog = logs.Merged
	}
	return row, nil
}

// FailoverExperiment sweeps the rank ladder through the three failure
// variants. Sweep points are independent clusters, so they run
// concurrently under Config.Parallel with rows assembled in ladder order.
func FailoverExperiment(c Config) (*FailoverResult, error) {
	sweep := c.rankSweep()
	rows := make([]FailoverRow, len(sweep))
	err := runIndexed(c.Parallel, len(sweep), func(i int) error {
		var err error
		rows[i], err = runFailoverRankCount(c, sweep[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return &FailoverResult{Rows: rows}, nil
}
