package experiments

import (
	"fmt"

	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
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
	// RestoreMBps is the rank0 variant's restore read burst bandwidth
	// (all ranks re-reading the rollback checkpoint at once).
	RestoreMBps float64
	// CkptBytesRank0/CkptBytesAll are total checkpoint bytes written
	// under the two patterns; All is exactly Ranks x Rank0.
	CkptBytesRank0 int64
	CkptBytesAll   int64
	// StragglerSpreadPct is (max-min)/mean of per-rank busy time in the
	// rank0 failure run (the victim's lost work shows up here).
	StragglerSpreadPct float64
}

// FailoverResult is the failure/recovery experiment over the rank ladder.
type FailoverResult = table[FailoverRow]

var failoverTable = &tableSpec[FailoverRow]{
	id:    "failover",
	title: "Failure-aware elastic training: mid-epoch rank death, rollback and restore read burst",
	cols: []column[FailoverRow]{
		{head: "ranks", width: 5, verb: "%5d", cell: func(r FailoverRow) any { return r.Ranks }},
		{head: "steps", width: 6, verb: "%6d", cell: func(r FailoverRow) any { return r.Steps }},
		{head: "fail@", width: 6, verb: "%6d", cell: func(r FailoverRow) any { return r.FailStep }},
		{head: "ckpt@", width: 6, verb: "%6d", cell: func(r FailoverRow) any { return r.CheckpointStep }},
		{head: "nofail(s)", width: 11, verb: "%11.2f", cell: func(r FailoverRow) any { return r.NoFailEpochSec }, metric: "nofail_epoch_s"},
		{head: "rank0(s)", width: 10, verb: "%10.2f", cell: func(r FailoverRow) any { return r.Rank0EpochSec }, metric: "fail_epoch_s"},
		{head: "allranks(s)", width: 11, verb: "%11.2f", cell: func(r FailoverRow) any { return r.AllRanksEpochSec }, metric: "failall_epoch_s"},
		{head: "delta(s)", width: 9, verb: "%9.2f", cell: func(r FailoverRow) any { return r.RestoreDeltaSec }, metric: "restore_delta_s"},
		{head: "restore MB/s", width: 13, verb: "%13.2f", cell: func(r FailoverRow) any { return r.RestoreMBps }, metric: "restore_MBps"},
		{head: "straggler%", width: 11, verb: "%10.1f%%", cell: func(r FailoverRow) any { return r.StragglerSpreadPct }},
		{metric: "downtime_s", value: func(r FailoverRow) float64 { return r.DowntimeSec }},
	},
	key: func(r FailoverRow) string { return ranksKey(r.Ranks) },
	// The largest rank count publishes the headline tracked per commit in
	// the BENCH_<n>.json snapshots.
	extra: func(rows []FailoverRow, out map[string]float64) {
		out["failover_restore_delta_s"] = rows[len(rows)-1].RestoreDeltaSec
	},
}

// failoverCkptDir is the checkpoint directory on the shared Lustre mount.
const failoverCkptDir = platform.KebnekaiseLustre + "/ckpt"

// failoverPoint runs the three variants at one rank count and enforces the
// experiment's invariants as errors: the failure runs must report exactly
// one recovery, restore reads may only appear after the failure instant,
// the all-ranks checkpoint byte total must be exactly the rank factor
// times rank 0's, and the restore burst must re-read the written
// checkpoint on every rank.
func (c Config) failoverPoint(ranks int) (rows []FailoverRow, err error) {
	defer wrapErr(&err, "ranks=%d", ranks)
	// Mid-epoch failure: the victim dies at the start of step s/2+1, with
	// checkpoints spaced so a rollback target exists before it.
	steps, err := c.epochSteps(ranks, 2)
	if err != nil {
		return nil, err
	}
	failStep := steps/2 + 1
	every := max(failStep/2, 1)
	// The victim is rank 1, or the only rank of a one-rank job.
	fail := []distributed.FailureEvent{{Rank: min(ranks-1, 1), Step: failStep, RebootDelay: failoverRebootDelay}}
	run := func(pattern distributed.CheckpointPattern, fail []distributed.FailureEvent) clusterRun {
		return clusterRun{ranks: ranks, shape: func(o *distributed.Options) {
			o.Checkpoint = distributed.CheckpointPolicy{Pattern: pattern, EverySteps: every, Dir: failoverCkptDir}
			o.Failures = fail
		}}
	}
	outs, err := c.runClusters(run(distributed.CkptRank0, nil), run(distributed.CkptRank0, fail), run(distributed.CkptAllRanks, fail))
	if err != nil {
		return nil, err
	}
	noFail, rank0, allRanks := outs[0], outs[1], outs[2]

	if noFail.Steps != steps || rank0.Steps != steps {
		return nil, fmt.Errorf("step counts diverged (%d/%d, precomputed %d)", noFail.Steps, rank0.Steps, steps)
	}
	var recs [2]distributed.FailureRecord
	var ckptBytes [2]int64
	for i, res := range []*clusterOutcome{rank0, allRanks} {
		if recs[i], err = restoredAfterFailure(res.Result); err != nil {
			return nil, err
		}
		if recs[i].CheckpointStep < 1 {
			return nil, fmt.Errorf("failure at step %d found no rollback checkpoint", recs[i].Step)
		}
		for r := range res.PerRank {
			ckptBytes[i] += res.PerRank[r].CkptBytes()
		}
	}
	if ckptBytes[0] == 0 || ckptBytes[1] != int64(ranks)*ckptBytes[0] {
		return nil, fmt.Errorf("all-ranks checkpoints wrote %d bytes, want exactly %d x %d", ckptBytes[1], ranks, ckptBytes[0])
	}
	f := recs[0]
	if f.RestoreBytes != recs[1].RestoreBytes {
		return nil, fmt.Errorf("restore bytes differ between patterns: %d vs %d", f.RestoreBytes, recs[1].RestoreBytes)
	}

	row := FailoverRow{
		Ranks:            ranks,
		Steps:            steps,
		FailStep:         failStep,
		CheckpointStep:   f.CheckpointStep,
		NoFailEpochSec:   noFail.WallSeconds,
		Rank0EpochSec:    rank0.WallSeconds,
		AllRanksEpochSec: allRanks.WallSeconds,
		RestoreDeltaSec:  rank0.WallSeconds - noFail.WallSeconds,
		DowntimeSec:      f.RejoinSec - f.FailSec,
		RestoreMBps:      ratio(float64(f.RestoreBytes)/1e6, f.RestoreSeconds),
		CkptBytesRank0:   ckptBytes[0],
		CkptBytesAll:     ckptBytes[1],
	}
	_, row.StragglerSpreadPct = stragglerSpread(rank0.Result)
	return []FailoverRow{row}, nil
}

// FailoverExperiment sweeps the rank ladder through the three failure
// variants.
func FailoverExperiment(c Config) (*FailoverResult, error) {
	return sweep(c, failoverTable, c.ladder(DefaultRankSweep), c.failoverPoint)
}
