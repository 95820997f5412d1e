package experiments

import (
	"fmt"
	"slices"
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

// ElasticRow is one fault-ladder rung of one rank count: the rollback
// vs elastic comparison under that rung's faults.
type ElasticRow struct {
	Ranks int
	Steps int
	// FailStep anchors the failure; ElasticSteps is the survivors'
	// continuation length (a function of the run plan and the failure, the
	// same on every rung).
	FailStep     int
	ElasticSteps int
	// NoFailEpochSec is the rank count's clean no-failure baseline.
	NoFailEpochSec float64
	Rung           string
	// RollbackSec/ElasticSec are the two protocols' epoch times under
	// this rung's faults.
	RollbackSec float64
	ElasticSec  float64
	// Faults/Retries are the elastic run's retry tally summed over ranks.
	Faults  int64
	Retries int64
}

// ElasticResult is the elastic-vs-rollback experiment over the fault
// ladder.
type ElasticResult = table[ElasticRow]

var elasticTable = &tableSpec[ElasticRow]{
	title: "Elastic continue-on-failure vs checkpoint rollback under transient faults",
	cols: []column[ElasticRow]{
		{head: "ranks", width: 5, verb: "%5d", cell: func(r ElasticRow) any { return r.Ranks }},
		{head: "steps", width: 6, verb: "%6d", cell: func(r ElasticRow) any { return r.Steps }},
		{head: "fail@", width: 6, verb: "%6d", cell: func(r ElasticRow) any { return r.FailStep }},
		{head: "cont.", width: 6, verb: "%6d", cell: func(r ElasticRow) any { return r.ElasticSteps }},
		{head: "rung", width: -6, verb: "%-6s", cell: func(r ElasticRow) any { return r.Rung }},
		{head: "rollback(s)", width: 11, verb: "%11.2f", cell: func(r ElasticRow) any { return r.RollbackSec }, metric: "rollback_s"},
		{head: "elastic(s)", width: 11, verb: "%11.2f", cell: func(r ElasticRow) any { return r.ElasticSec }, metric: "elastic_s"},
		// delta is the downtime the elastic protocol saves.
		{head: "delta(s)", width: 10, verb: "%10.2f", cell: func(r ElasticRow) any { return r.RollbackSec - r.ElasticSec }, metric: "delta_s"},
		{head: "faults", width: 8, verb: "%8d", cell: func(r ElasticRow) any { return r.Faults }},
		{head: "retries", width: 8, verb: "%8d", cell: func(r ElasticRow) any { return r.Retries }},
	},
	key: func(r ElasticRow) string { return ranksKey(r.Ranks) + r.Rung + "_" },
	// The largest rank count publishes the headline
	// elastic_downtime_delta_s (clean rung) and retry_total, pinned per
	// commit in testdata/cluster_experiments.golden.
	extra: func(rows []ElasticRow, out map[string]float64) {
		for _, r := range rows {
			out[ranksKey(r.Ranks)+"nofail_epoch_s"] = r.NoFailEpochSec
			out[ranksKey(r.Ranks)+"retry_total"] += float64(r.Retries)
		}
		p := ranksKey(rows[len(rows)-1].Ranks)
		out["elastic_downtime_delta_s"] = out[p+"clean_delta_s"]
		out["retry_total"] = out[p+"retry_total"]
	},
}

// datasetReads sums POSIX bytes read outside the checkpoint prefix — the
// dataset traffic a protocol actually paid for — and counts the distinct
// dataset files touched.
func datasetReads(m *darshan.Log) (bytes int64, files int) {
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
func checkElasticLifecycles(res *distributed.Result, victim int) error {
	for r, rr := range res.PerRank {
		states := map[distributed.LifecycleState]bool{}
		for _, e := range rr.Lifecycle {
			states[e.State] = true
		}
		switch {
		case r == victim && (!states[distributed.LifeFailed] || !states[distributed.LifeRestoring]):
			return fmt.Errorf("victim rank %d lifecycle %v lacks failed/restoring", r, rr.Lifecycle)
		case r == victim: // the survivor checks below do not apply
		case !states[distributed.LifeDegraded] || !states[distributed.LifeResharded]:
			return fmt.Errorf("survivor rank %d lifecycle %v lacks degraded/resharded", r, rr.Lifecycle)
		case states[distributed.LifeRestoring]:
			return fmt.Errorf("survivor rank %d restored; elastic mode must not roll survivors back", r)
		case rr.RestoreBytes != 0:
			return fmt.Errorf("survivor rank %d read %d restore bytes", r, rr.RestoreBytes)
		}
	}
	return nil
}

// checkElasticRung enforces one rung's invariants as errors: each run
// recovered once and read checkpoints only after the failure, elastic
// beat rollback, elastic continued without a restore storm and with sound
// lifecycles, dataset bytes are conserved, and retries surface on the
// fault rungs and only there.
func checkElasticRung(rollback, elastic, noFail *distributed.Result, faulty bool, batch int) error {
	ranks := len(elastic.PerRank)
	ef, err := restoredAfterFailure(elastic)
	if err != nil {
		return fmt.Errorf("elastic: %w", err)
	}
	rf, err := restoredAfterFailure(rollback)
	if err != nil {
		return fmt.Errorf("rollback: %w", err)
	}
	if elastic.WallSeconds >= rollback.WallSeconds {
		return fmt.Errorf("elastic %.3fs did not beat rollback %.3fs", elastic.WallSeconds, rollback.WallSeconds)
	}
	if !ef.Elastic || ef.ElasticSteps < 1 || ef.ReshardFiles < 1 {
		return fmt.Errorf("elastic record %+v lacks a continuation", ef)
	}
	// No restore storm: the rollback burst is every rank's, the elastic
	// burst the victim's alone — exactly the rank factor.
	if ef.RestoreBytes == 0 || rf.RestoreBytes != int64(ranks)*ef.RestoreBytes {
		return fmt.Errorf("restore bytes rollback %d vs elastic %d, want exactly %dx", rf.RestoreBytes, ef.RestoreBytes, ranks)
	}
	if err := checkElasticLifecycles(elastic, ef.Rank); err != nil {
		return err
	}
	// Byte conservation. Elastic covers the dataset once, modulo two
	// bounded effects: catch-up re-reads (files the victim's pipeline had
	// read ahead and took to the grave, re-read by the survivors) add
	// bytes, and batch-granular truncation of the re-sharded continuations
	// drops at most batch+1 sub-batch tail files per survivor. Rollback
	// additionally re-reads every replayed step on every rank, so it can
	// never read fewer bytes than elastic.
	nfBytes, nfFiles := datasetReads(noFail.Merged)
	eBytes, eFiles := datasetReads(elastic.Merged)
	rBytes, _ := datasetReads(rollback.Merged)
	if slack := (ranks - 1) * (batch + 1); eFiles < nfFiles-slack {
		return fmt.Errorf("elastic run lost dataset files: %d of %d read (slack %d)", eFiles, nfFiles, slack)
	}
	if rBytes < eBytes {
		return fmt.Errorf("dataset bytes not conserved: nofail %d, elastic %d, rollback %d", nfBytes, eBytes, rBytes)
	}
	if !faulty && (!faultFree(elastic.Retry) || !faultFree(rollback.Retry)) {
		return fmt.Errorf("clean rung recorded faults (%+v / %+v)", elastic.Retry, rollback.Retry)
	}
	if faulty && (elastic.Retry.Retries == 0 || rollback.Retry.Retries == 0) {
		return fmt.Errorf("fault rung recorded no retries (%+v / %+v)", elastic.Retry, rollback.Retry)
	}
	return nil
}

// faultFree reports whether a retry tally saw no fault activity. Ops is
// left out: it counts guarded operations on a clean run too.
func faultFree(s tf.RetryStats) bool {
	s.Ops = 0
	return s == tf.RetryStats{}
}

// elasticPoint runs the fault ladder at one rank count.
func (c Config) elasticPoint(ranks int) (rows []ElasticRow, err error) {
	defer wrapErr(&err, "ranks=%d", ranks)
	steps, err := c.epochSteps(ranks, 4)
	if err != nil {
		return nil, err
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
	fail := []distributed.FailureEvent{{Rank: 1, Step: failStep, RebootDelay: failoverRebootDelay}}
	// run executes one protocol under one fault plan, with the bounded
	// retry policy armed.
	run := func(elastic bool, fail []distributed.FailureEvent, faults *vfs.FaultPlan) clusterRun {
		return clusterRun{ranks: ranks, faults: faults, shape: func(o *distributed.Options) {
			o.Checkpoint = distributed.CheckpointPolicy{Pattern: distributed.CkptRank0, EverySteps: every, Dir: failoverCkptDir}
			o.Failures = fail
			o.Elastic = elastic
			o.Retry = tf.RetryPolicy{
				MaxRetries:  4,
				BaseBackoff: 2 * sim.Millisecond,
				MaxBackoff:  50 * sim.Millisecond,
				OpTimeout:   sim.Second,
				Seed:        c.shuffleSeed(),
			}
		}}
	}

	noFail, err := c.runCluster(run(false, nil, nil))
	if err != nil {
		return nil, err
	}
	if !faultFree(noFail.Retry) {
		return nil, fmt.Errorf("clean baseline recorded faults %+v", noFail.Retry)
	}
	// The fault ladder. Windows are placed in the pre-failure phase
	// (fractions of the no-failure wall time), so both protocols degrade
	// through identical conditions before the death.
	stormWindow := func(factor float64) []vfs.FaultWindow {
		return []vfs.FaultWindow{{
			Start:  sim.Duration(0.20 * noFail.WallSeconds * 1e9),
			End:    sim.Duration(0.45 * noFail.WallSeconds * 1e9),
			Factor: factor,
		}}
	}
	for _, rung := range []struct {
		Name string
		Plan *vfs.FaultPlan
	}{
		{"clean", nil},
		{"flaky", &vfs.FaultPlan{Seed: c.shuffleSeed(), ReadErrNth: 97}},
		{"storm", &vfs.FaultPlan{
			Seed:         c.shuffleSeed(),
			ReadErrNth:   41,
			MDSBrownouts: stormWindow(8),
			DegradedOSTs: stormWindow(4),
		}},
	} {
		outs, err := c.runClusters(run(false, fail, rung.Plan), run(true, fail, rung.Plan))
		if err == nil {
			err = checkElasticRung(outs[0].Result, outs[1].Result, noFail.Result, rung.Plan != nil, untunedClusterOptions(c).Batch)
		}
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", rung.Name, err)
		}
		rollback, elastic := outs[0], outs[1]
		rows = append(rows, ElasticRow{
			Ranks:          ranks,
			Steps:          steps,
			FailStep:       failStep,
			ElasticSteps:   elastic.Failures[0].ElasticSteps,
			NoFailEpochSec: noFail.WallSeconds,
			Rung:           rung.Name,
			RollbackSec:    rollback.WallSeconds,
			ElasticSec:     elastic.WallSeconds,
			Faults:         elastic.Retry.Faults,
			Retries:        elastic.Retry.Retries,
		})
	}
	return rows, nil
}

// ElasticExperiment sweeps rank counts >= 2 (elastic recovery needs at
// least one survivor) through the fault ladder.
func ElasticExperiment(c Config) (*ElasticResult, error) {
	ranks := slices.DeleteFunc(c.ladder(DefaultRankSweep), func(r int) bool { return r < 2 })
	if len(ranks) == 0 {
		return nil, fmt.Errorf("elastic: no rank counts >= 2 in the sweep (elastic recovery needs a survivor)")
	}
	return sweep(c, elasticTable, ranks, c.elasticPoint)
}
