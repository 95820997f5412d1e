package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/vfs"
)

// The elastic experiment pits the two failure protocols against each
// other under a ladder of injected transient faults: the same mid-epoch
// rank death is recovered once by checkpoint rollback (every rank stalls
// through the reboot, restores and replays) and once elastically (the
// survivors re-shard the victim's remaining work and keep committing
// steps while the reborn rank catches up alone). Every run arms the
// bounded-retry policy, and the fault ladder adds flaky reads, an MDS
// brownout and a degraded-OST window on top, so graceful degradation is
// measured, not assumed. The experiment enforces its invariants as
// errors: elastic must beat rollback on wall time at every rung, the
// elastic restore burst must be exactly one rank's (no restore storm),
// dataset coverage and bytes are conserved (elastic reads the dataset
// once modulo catch-up re-reads and bounded sub-batch tail truncation,
// and never more bytes than rollback's replay), checkpoint reads may
// only follow the failure instant, and clean runs must record zero
// retries.

// elasticRetryPolicy is the bounded-retry policy armed on every run.
func elasticRetryPolicy(c Config) tf.RetryPolicy {
	return tf.RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: 2 * sim.Millisecond,
		MaxBackoff:  50 * sim.Millisecond,
		OpTimeout:   sim.Second,
		Seed:        c.shuffleSeed(),
	}
}

// elasticFaultRungs builds the fault ladder. Windows are placed in the
// pre-failure phase (fractions of the no-failure wall time), so both
// protocols degrade through identical conditions before the death.
func elasticFaultRungs(c Config, noFailWall float64) []struct {
	Name string
	Plan *vfs.FaultPlan
} {
	w := func(a, b float64, f float64) vfs.FaultWindow {
		return vfs.FaultWindow{
			Start:  sim.Duration(a * noFailWall * 1e9),
			End:    sim.Duration(b * noFailWall * 1e9),
			Factor: f,
		}
	}
	return []struct {
		Name string
		Plan *vfs.FaultPlan
	}{
		{"clean", nil},
		{"flaky", &vfs.FaultPlan{Seed: c.shuffleSeed(), ReadErrNth: 97}},
		{"storm", &vfs.FaultPlan{
			Seed:         c.shuffleSeed(),
			ReadErrNth:   41,
			MDSBrownouts: []vfs.FaultWindow{w(0.20, 0.45, 8)},
			DegradedOSTs: []vfs.FaultWindow{w(0.20, 0.45, 4)},
		}},
	}
}

// ElasticRung is one fault-ladder rung's rollback-vs-elastic comparison.
type ElasticRung struct {
	Name string
	// RollbackSec/ElasticSec are the two protocols' epoch times under
	// this rung's faults; DeltaSec is rollback minus elastic (the
	// downtime the elastic protocol saves).
	RollbackSec float64
	ElasticSec  float64
	DeltaSec    float64
	// Faults/Retries/Giveups are the elastic run's merged retry tally.
	Faults  int64
	Retries int64
	Giveups int64
}

// ElasticRow is one rank count of the elastic table.
type ElasticRow struct {
	Ranks int
	Steps int
	// FailStep/CheckpointStep anchor the failure and the catch-up target.
	FailStep       int
	CheckpointStep int
	// ElasticSteps/ReshardFiles describe the survivors' continuation.
	ElasticSteps int
	ReshardFiles int
	// NoFailEpochSec is the clean no-failure baseline.
	NoFailEpochSec float64
	// DowntimeSec is the victim's death-to-rejoin window.
	DowntimeSec float64
	Rungs       []ElasticRung
	// MergedDarshanLog is the storm-rung elastic run's serialized merged
	// log (Config.KeepLogs only), round-trip verified.
	MergedDarshanLog []byte
}

// ElasticResult is the elastic-vs-rollback experiment over the fault
// ladder.
type ElasticResult struct {
	Rows []ElasticRow
}

// ID implements Result.
func (r *ElasticResult) ID() string { return "elastic" }

// Render implements Result.
func (r *ElasticResult) Render() string {
	var b strings.Builder
	b.WriteString("Elastic continue-on-failure vs checkpoint rollback under transient faults\n")
	fmt.Fprintf(&b, "  %5s %6s %6s %6s %-6s %11s %11s %10s %8s %8s\n",
		"ranks", "steps", "fail@", "cont.", "rung", "rollback(s)", "elastic(s)", "delta(s)", "faults", "retries")
	for _, row := range r.Rows {
		for _, rung := range row.Rungs {
			fmt.Fprintf(&b, "  %5d %6d %6d %6d %-6s %11.2f %11.2f %10.2f %8d %8d\n",
				row.Ranks, row.Steps, row.FailStep, row.ElasticSteps, rung.Name,
				rung.RollbackSec, rung.ElasticSec, rung.DeltaSec, rung.Faults, rung.Retries)
		}
	}
	return b.String()
}

// Metrics implements Result. The last (largest) rank count publishes the
// headline elastic_downtime_delta_s and retry_total tracked per commit in
// the BENCH_<n>.json snapshots.
func (r *ElasticResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		p := fmt.Sprintf("ranks%d_", row.Ranks)
		out[p+"nofail_epoch_s"] = row.NoFailEpochSec
		var retries int64
		for _, rung := range row.Rungs {
			out[p+rung.Name+"_rollback_s"] = rung.RollbackSec
			out[p+rung.Name+"_elastic_s"] = rung.ElasticSec
			out[p+rung.Name+"_delta_s"] = rung.DeltaSec
			retries += rung.Retries
		}
		out[p+"retry_total"] = float64(retries)
	}
	if n := len(r.Rows); n > 0 {
		last := r.Rows[n-1]
		out["elastic_downtime_delta_s"] = last.Rungs[0].DeltaSec
		var retries int64
		for _, rung := range last.Rungs {
			retries += rung.Retries
		}
		out["retry_total"] = float64(retries)
	}
	return out
}

// runElasticVariant executes one protocol under one fault plan on a fresh
// cluster (DXT stdio tracing on, retry policy armed).
func runElasticVariant(c Config, ranks int, elastic bool, every int, fail []distributed.FailureEvent, plan *vfs.FaultPlan) (*distributed.Result, error) {
	cluster, d, err := buildFailoverCluster(c, ranks)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		cluster.FS.InjectFaults(*plan)
	}
	opts := untunedClusterOptions(c)
	opts.Checkpoint = distributed.CheckpointPolicy{Pattern: distributed.CkptRank0, EverySteps: every, Dir: failoverCkptDir}
	opts.Failures = fail
	opts.Elastic = elastic && len(fail) > 0
	opts.Retry = elasticRetryPolicy(c)
	return distributed.Run(cluster, d.Paths, opts)
}

// datasetReads sums POSIX bytes read outside the checkpoint prefix — the
// dataset traffic a protocol actually paid for — and counts the distinct
// dataset files touched.
func datasetReads(m *darshan.MergedLog) (bytes int64, files int) {
	for i := range m.Posix {
		if strings.HasPrefix(m.Names[m.Posix[i].ID], failoverCkptDir+"/") {
			continue
		}
		if n := m.Posix[i].Counters[darshan.POSIX_BYTES_READ]; n > 0 {
			bytes += n
			files++
		}
	}
	return bytes, files
}

// checkElasticLifecycles verifies the elastic run's per-rank state
// machines: survivors degrade and re-shard without ever restoring; the
// victim is the only rank that restores.
func checkElasticLifecycles(res *distributed.Result, victim, ranks int) error {
	for r := range res.PerRank {
		states := map[distributed.LifecycleState]bool{}
		for _, e := range res.PerRank[r].Lifecycle {
			states[e.State] = true
		}
		if r == victim {
			if !states[distributed.LifeFailed] || !states[distributed.LifeRestoring] {
				return fmt.Errorf("victim rank %d lifecycle %v lacks failed/restoring", r, res.PerRank[r].Lifecycle)
			}
			continue
		}
		if !states[distributed.LifeDegraded] || !states[distributed.LifeResharded] {
			return fmt.Errorf("survivor rank %d lifecycle %v lacks degraded/resharded", r, res.PerRank[r].Lifecycle)
		}
		if states[distributed.LifeRestoring] {
			return fmt.Errorf("survivor rank %d restored; elastic mode must not roll survivors back", r)
		}
		if res.PerRank[r].RestoreBytes != 0 {
			return fmt.Errorf("survivor rank %d read %d restore bytes", r, res.PerRank[r].RestoreBytes)
		}
	}
	return nil
}

// runElasticRankCount runs the fault ladder at one rank count, enforcing
// the experiment's invariants as errors.
func runElasticRankCount(c Config, ranks int) (ElasticRow, error) {
	_, d, err := buildFailoverCluster(c, ranks)
	if err != nil {
		return ElasticRow{}, err
	}
	opts := untunedClusterOptions(c)
	plan, err := distributed.NewPlan(d.Paths, opts.Shuffle, ranks, 1, opts.Batch)
	if err != nil {
		return ElasticRow{}, err
	}
	steps := plan.Steps
	if steps < 4 {
		return ElasticRow{}, fmt.Errorf("ranks=%d: %d steps is too short to fail late-epoch (raise -scale)", ranks, steps)
	}
	// Checkpoint twice per epoch and die three quarters through — midway
	// between checkpoints. The cadence is the crux of the comparison:
	// rollback re-executes everything since the last checkpoint (S/2 steps,
	// cold on the rebooted victim's critical path, plus the reboot stall),
	// while elastic re-executes only the victim's remainder (S/4 steps,
	// spread over the N-1 survivors) and replays nothing. At two ranks the
	// lone survivor absorbs that remainder whole, so the step surcharges
	// tie and elastic wins by the stall + restore it never serializes; at
	// higher rank counts the re-shard spreads and the gap widens. Checkpoint
	// often enough (or die right after a checkpoint) and rollback wins
	// instead — sparse checkpoints are what elastic recovery buys out of.
	failStep := (3 * steps) / 4
	every := steps / 2
	victim := 1
	fail := []distributed.FailureEvent{{Rank: victim, Step: failStep, RebootDelay: failoverRebootDelay}}

	noFail, err := runElasticVariant(c, ranks, false, every, nil, nil)
	if err != nil {
		return ElasticRow{}, err
	}
	if !noFail.Merged.Faults.Zero() {
		return ElasticRow{}, fmt.Errorf("ranks=%d: clean baseline recorded faults %+v", ranks, noFail.Merged.Faults)
	}
	row := ElasticRow{Ranks: ranks, Steps: steps, FailStep: failStep, NoFailEpochSec: noFail.WallSeconds}

	for _, rung := range elasticFaultRungs(c, noFail.WallSeconds) {
		rollback, err := runElasticVariant(c, ranks, false, every, fail, rung.Plan)
		if err != nil {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s rollback: %w", ranks, rung.Name, err)
		}
		elastic, err := runElasticVariant(c, ranks, true, every, fail, rung.Plan)
		if err != nil {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s elastic: %w", ranks, rung.Name, err)
		}

		// Elastic must beat rollback on downtime at every rung.
		if elastic.WallSeconds >= rollback.WallSeconds {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: elastic %.3fs did not beat rollback %.3fs",
				ranks, rung.Name, elastic.WallSeconds, rollback.WallSeconds)
		}
		ef, rf := elastic.Failures[0], rollback.Failures[0]
		if !ef.Elastic || ef.ElasticSteps < 1 || ef.ReshardFiles < 1 {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: elastic record %+v lacks a continuation", ranks, rung.Name, ef)
		}
		// No restore storm: the rollback burst is every rank's, the
		// elastic burst the victim's alone — exactly the rank factor.
		if ef.RestoreBytes == 0 || rf.RestoreBytes != int64(ranks)*ef.RestoreBytes {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: restore bytes rollback %d vs elastic %d, want exactly %dx",
				ranks, rung.Name, rf.RestoreBytes, ef.RestoreBytes, ranks)
		}
		if err := checkElasticLifecycles(elastic, victim, ranks); err != nil {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: %w", ranks, rung.Name, err)
		}
		// Byte conservation. Elastic covers the dataset once, modulo two
		// bounded effects: catch-up re-reads (files the victim's pipeline
		// had read ahead and took to the grave, re-read by the survivors)
		// add bytes, and batch-granular truncation of the re-sharded
		// continuations drops at most batch+1 sub-batch tail files per
		// survivor. Rollback additionally re-reads every replayed step on
		// every rank, so it can never read fewer bytes than elastic.
		nfBytes, nfFiles := datasetReads(noFail.Merged)
		eBytes, eFiles := datasetReads(elastic.Merged)
		rBytes, _ := datasetReads(rollback.Merged)
		if slack := (ranks - 1) * (opts.Batch + 1); eFiles < nfFiles-slack {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: elastic run lost dataset files: %d of %d read (slack %d)",
				ranks, rung.Name, eFiles, nfFiles, slack)
		}
		if rBytes < eBytes {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: dataset bytes not conserved: nofail %d, elastic %d, rollback %d",
				ranks, rung.Name, nfBytes, eBytes, rBytes)
		}
		// Checkpoint reads only after the failure instant, in both modes.
		for _, res := range []*distributed.Result{rollback, elastic} {
			reads, earliest := ckptTimelineReads(res.Merged)
			if reads == 0 {
				return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: no checkpoint reads on the merged timeline", ranks, rung.Name)
			}
			if earliest < res.Failures[0].FailSec {
				return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: checkpoint read at %.3fs precedes the failure at %.3fs",
					ranks, rung.Name, earliest, res.Failures[0].FailSec)
			}
		}
		// Retries surface on the fault rungs and only there.
		if rung.Plan == nil && (!elastic.Merged.Faults.Zero() || !rollback.Merged.Faults.Zero()) {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: clean rung recorded faults (%+v / %+v)",
				ranks, rung.Name, elastic.Merged.Faults, rollback.Merged.Faults)
		}
		if rung.Plan != nil && (elastic.Merged.Faults.Retries == 0 || rollback.Merged.Faults.Retries == 0) {
			return ElasticRow{}, fmt.Errorf("ranks=%d rung %s: fault rung recorded no retries (%+v / %+v)",
				ranks, rung.Name, elastic.Merged.Faults, rollback.Merged.Faults)
		}

		if rung.Plan == nil {
			row.CheckpointStep = ef.CheckpointStep
			row.ElasticSteps = ef.ElasticSteps
			row.ReshardFiles = ef.ReshardFiles
			row.DowntimeSec = ef.RejoinSec - ef.FailSec
		}
		row.Rungs = append(row.Rungs, ElasticRung{
			Name:        rung.Name,
			RollbackSec: rollback.WallSeconds,
			ElasticSec:  elastic.WallSeconds,
			DeltaSec:    rollback.WallSeconds - elastic.WallSeconds,
			Faults:      elastic.Merged.Faults.Faults,
			Retries:     elastic.Merged.Faults.Retries,
			Giveups:     elastic.Merged.Faults.Giveups,
		})
		if c.KeepLogs && rung.Name == "storm" {
			logs, err := elastic.SerializeLogs()
			if err != nil {
				return ElasticRow{}, err
			}
			m, err := darshan.ReadMergedLog(bytes.NewReader(logs.Merged))
			if err != nil {
				return ElasticRow{}, fmt.Errorf("ranks=%d: merged elastic log does not round-trip: %w", ranks, err)
			}
			if m.NProcs != ranks {
				return ElasticRow{}, fmt.Errorf("ranks=%d: decoded elastic log has nprocs %d", ranks, m.NProcs)
			}
			row.MergedDarshanLog = logs.Merged
		}
	}
	return row, nil
}

// ElasticExperiment sweeps rank counts >= 2 (elastic recovery needs at
// least one survivor) through the fault ladder. Sweep points are
// independent clusters, so they run concurrently under Config.Parallel.
func ElasticExperiment(c Config) (*ElasticResult, error) {
	var sweep []int
	for _, r := range c.rankSweep() {
		if r >= 2 {
			sweep = append(sweep, r)
		}
	}
	if len(sweep) == 0 {
		return nil, fmt.Errorf("elastic: no rank counts >= 2 in the sweep (elastic recovery needs a survivor)")
	}
	rows := make([]ElasticRow, len(sweep))
	err := runIndexed(c.Parallel, len(sweep), func(i int) error {
		var err error
		rows[i], err = runElasticRankCount(c, sweep[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ElasticResult{Rows: rows}, nil
}
