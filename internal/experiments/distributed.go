package experiments

import (
	"fmt"

	"repro/internal/darshan"
)

// RanksRow is one rank count of the scaling table.
type RanksRow struct {
	Ranks int
	// EpochSec is the virtual wall time of the lockstep epoch.
	EpochSec float64
	// AggReadMBps is aggregate POSIX read bandwidth across ranks (merged
	// bytes / epoch time); SpeedupX is its ratio to the ranks=1 row (0
	// when the sweep has none).
	AggReadMBps float64
	SpeedupX    float64
	// PerRankBusySec is each rank's epoch time minus barrier stalls.
	PerRankBusySec []float64
	// StragglerSpreadPct is (max-min)/mean of per-rank busy time.
	StragglerSpreadPct float64
	// MeanSyncSec is the mean per-rank time lost to gradient
	// synchronization (barrier wait + allreduce).
	MeanSyncSec float64
	// Steps is the lockstep step count.
	Steps int
	// MergedReads/MergedBytesRead are aggregate counters from the
	// cross-rank Darshan merge.
	MergedReads     int64
	MergedBytesRead int64
	// TimelineSegs is the merged, rank-attributed DXT segment count.
	TimelineSegs int
}

// RanksResult is the distributed data-parallel scaling experiment: the
// ImageNet workload sharded over N Kebnekaise nodes on one shared Lustre
// system, profiled end-to-end with per-rank Darshan runtimes and reduced
// with the cross-rank merger.
type RanksResult = table[RanksRow]

var ranksTable = &tableSpec[RanksRow]{
	title: "Distributed data-parallel ImageNet on shared Lustre (per-rank Darshan logs, cross-rank merge)",
	cols: []column[RanksRow]{
		{head: "ranks", width: 5, verb: "%5d", cell: func(r RanksRow) any { return r.Ranks }},
		{head: "epoch(s)", width: 10, verb: "%10.2f", cell: func(r RanksRow) any { return r.EpochSec }, metric: "epoch_s"},
		{head: "agg MB/s", width: 12, verb: "%12.2f", cell: func(r RanksRow) any { return r.AggReadMBps }, metric: "agg_MBps"},
		{head: "speedup", width: 10, verb: "%10s", cell: func(r RanksRow) any {
			if r.SpeedupX == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", r.SpeedupX)
		}},
		{head: "straggler%", width: 12, verb: "%11.1f%%", cell: func(r RanksRow) any { return r.StragglerSpreadPct }, metric: "straggler_pct"},
		{head: "sync(s)", width: 10, verb: "%10.2f", cell: func(r RanksRow) any { return r.MeanSyncSec }, metric: "sync_s"},
		{head: "steps", width: 8, verb: "%8d", cell: func(r RanksRow) any { return r.Steps }},
	},
	key: func(r RanksRow) string { return ranksKey(r.Ranks) },
}

// ranksPoint executes one rank count of the sweep and folds the run into
// a table row.
func (c Config) ranksPoint(ranks int) (rows []RanksRow, err error) {
	defer wrapErr(&err, "ranks=%d", ranks)
	res, err := c.runCluster(clusterRun{ranks: ranks})
	if err != nil {
		return nil, err
	}
	row := RanksRow{
		Ranks:           ranks,
		EpochSec:        res.WallSeconds,
		AggReadMBps:     res.aggMBps(),
		Steps:           res.Steps,
		MergedReads:     res.Merged.TotalPosix(darshan.POSIX_READS),
		MergedBytesRead: res.bytesRead(),
		TimelineSegs:    len(res.Merged.Timeline),
	}
	row.PerRankBusySec, row.StragglerSpreadPct = stragglerSpread(res.Result)
	var sync float64
	for _, r := range res.PerRank {
		sync += float64(r.History.SyncNs()) / 1e9
	}
	row.MeanSyncSec = sync / float64(ranks)
	return []RanksRow{row}, nil
}

// RanksExperiment sweeps the rank ladder and reports aggregate bandwidth,
// per-rank straggler spread and epoch time per rank count.
func RanksExperiment(c Config) (*RanksResult, error) {
	res, err := sweep(c, ranksTable, c.ladder(DefaultRankSweep), c.ranksPoint)
	if err != nil {
		return nil, err
	}
	if base := res.Rows[0]; base.Ranks == 1 && base.AggReadMBps > 0 {
		for i := range res.Rows {
			res.Rows[i].SpeedupX = res.Rows[i].AggReadMBps / base.AggReadMBps
		}
	}
	return res, nil
}
