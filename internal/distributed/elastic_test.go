package distributed

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/vfs"
)

// elasticOpts is failoverOpts switched to continue-on-failure.
func elasticOpts(pattern CheckpointPattern) Options {
	opts := failoverOpts(pattern)
	opts.Elastic = true
	return opts
}

func testRetryPolicy() tf.RetryPolicy {
	return tf.RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: 2 * sim.Millisecond,
		MaxBackoff:  50 * sim.Millisecond,
		OpTimeout:   sim.Second,
		Seed:        testSeed,
	}
}

// runRanksFaulted is runRanks with an optional fault plan armed on the
// shared FS before the job starts.
func runRanksFaulted(t *testing.T, ranks, files int, opts Options, plan *vfs.FaultPlan) *Result {
	t.Helper()
	c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, files)
	if plan != nil {
		c.FS.InjectFaults(*plan)
	}
	res, err := Run(c, d.Paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestElasticRecovery drives the full continue-on-failure protocol: rank 1
// of 4 dies at step 5 of 8; the survivors observe the break, re-shard its
// remaining 16 files and run a 4-step continuation; the reborn rank
// restores the checkpoint alone and is absorbed via Join.
func TestElasticRecovery(t *testing.T) {
	const ranks, files = 4, 128
	res := runRanks(t, ranks, files, elasticOpts(CkptRank0))
	if res.Steps != 8 {
		t.Fatalf("steps = %d, want 8", res.Steps)
	}
	f := res.Failures[0]
	if !f.Elastic {
		t.Fatal("failure record not marked elastic")
	}
	// Shards are 32 files; the victim had consumed 16 (4 committed steps
	// x batch 4), survivors 20 each. 12 own + ~1/3 of 16 re-sharded files
	// is 17..18 files: a 4-step continuation.
	if f.ReshardFiles != 16 {
		t.Fatalf("resharded %d files, want 16", f.ReshardFiles)
	}
	if f.ElasticSteps != 4 {
		t.Fatalf("continuation of %d steps, want 4", f.ElasticSteps)
	}
	if f.CheckpointStep != 4 {
		t.Fatalf("catch-up checkpoint %d, want 4", f.CheckpointStep)
	}
	if f.ResumeStep <= f.Step {
		t.Fatalf("victim resumed at %d, want after the broken step %d", f.ResumeStep, f.Step)
	}

	victim := &res.PerRank[1]
	if victim.Incarnations != 2 {
		t.Fatalf("victim incarnations = %d, want 2", victim.Incarnations)
	}
	wantVictim := []LifecycleState{LifeRunning, LifeFailed, LifeRejoined, LifeRestoring, LifeRunning}
	if got := lifecycleStates(victim); !equalStates(got, wantVictim) {
		t.Fatalf("victim lifecycle %v, want %v", got, wantVictim)
	}
	// The victim commits no fit segments: its remaining work moved.
	if victim.History.StepsRun != 0 {
		t.Fatalf("victim ran %d steps after death, want 0", victim.History.StepsRun)
	}

	for _, r := range []int{0, 2, 3} {
		surv := &res.PerRank[r]
		want := []LifecycleState{LifeRunning, LifeDegraded, LifeResharded}
		if got := lifecycleStates(surv); !equalStates(got, want) {
			t.Fatalf("survivor %d lifecycle %v, want %v", r, got, want)
		}
		// Broken step + continuation, no rollback: 5 + 4 committed steps.
		if got := surv.History.StepsRun; got != f.Step+f.ElasticSteps {
			t.Fatalf("survivor %d ran %d steps, want %d", r, got, f.Step+f.ElasticSteps)
		}
		if surv.RestoreBytes != 0 {
			t.Fatalf("survivor %d restored %d bytes; elastic mode must not restore survivors", r, surv.RestoreBytes)
		}
	}

	// No restore storm: the read burst is the victim's alone — exactly one
	// checkpoint's worth, not ranks x that.
	var ckpt4 int64
	for _, c := range res.PerRank[0].Checkpoints {
		if strings.HasSuffix(c.Path, "ckpt-0004") {
			ckpt4 = c.Bytes
		}
	}
	if ckpt4 == 0 {
		t.Fatal("no ckpt-0004 written")
	}
	if victim.RestoreBytes != ckpt4 {
		t.Fatalf("victim restored %d bytes, want %d", victim.RestoreBytes, ckpt4)
	}
	if f.RestoreBytes != ckpt4 {
		t.Fatalf("restore burst %d bytes, want exactly one checkpoint (%d)", f.RestoreBytes, ckpt4)
	}

	// Rank 0 kept checkpointing through the continuation: steps 2, 4
	// pre-failure and 6, 8 afterwards.
	if got := len(res.PerRank[0].Checkpoints); got != 4 {
		t.Fatalf("rank 0 wrote %d checkpoints, want 4", got)
	}
}

func equalStates(got, want []LifecycleState) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestElasticBeatsRollbackDowntime: on the same failure schedule the
// elastic job finishes sooner than the rollback job — survivors never
// stall on the reboot, and nobody replays committed work.
func TestElasticBeatsRollbackDowntime(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		rollback := runRanks(t, ranks, 128, failoverOpts(CkptRank0))
		elastic := runRanks(t, ranks, 128, elasticOpts(CkptRank0))
		if elastic.WallSeconds >= rollback.WallSeconds {
			t.Fatalf("ranks %d: elastic wall %.3fs, rollback %.3fs; elastic must win",
				ranks, elastic.WallSeconds, rollback.WallSeconds)
		}
	}
}

// TestElasticCheckpointTimelineReads: in elastic mode checkpoint reads
// (the victim's catch-up burst) appear on the merged DXT timeline only
// after the failure instant.
func TestElasticCheckpointTimelineReads(t *testing.T) {
	res := runRanksStdioDXT(t, 4, 128, elasticOpts(CkptRank0))
	f := res.Failures[0]
	reads := 0
	for _, seg := range res.Merged.Timeline {
		if seg.Write || !strings.HasPrefix(res.Merged.Names[seg.ID], ckptDir+"/") {
			continue
		}
		reads++
		if seg.Start < f.FailSec {
			t.Fatalf("checkpoint read at %.3fs before failure at %.3fs", seg.Start, f.FailSec)
		}
	}
	if reads == 0 {
		t.Fatal("no catch-up reads in the merged timeline")
	}
}

// stormPlan is a fault plan with transient read errors, an MDS brownout
// and degraded OSTs early in a 2-rank, 64-file run.
func stormPlan() *vfs.FaultPlan {
	return &vfs.FaultPlan{
		Seed:       testSeed,
		ReadErrNth: 41,
		MDSBrownouts: []vfs.FaultWindow{
			{Start: 100 * sim.Millisecond, End: 400 * sim.Millisecond, Factor: 8},
		},
		DegradedOSTs: []vfs.FaultWindow{
			{Start: 100 * sim.Millisecond, End: 500 * sim.Millisecond, Factor: 4},
		},
	}
}

// TestElasticDeterministicUnderFaults: elastic recovery under an armed
// fault ladder and retry policy serializes byte-identical logs and
// reports identical retry tallies run to run.
func TestElasticDeterministicUnderFaults(t *testing.T) {
	opts := elasticOpts(CkptRank0)
	opts.Retry = testRetryPolicy()
	a := runRanksFaulted(t, 2, 64, opts, stormPlan())
	b := runRanksFaulted(t, 2, 64, opts, stormPlan())
	if a.WallSeconds != b.WallSeconds {
		t.Fatalf("wall diverges: %.9fs vs %.9fs", a.WallSeconds, b.WallSeconds)
	}
	sa, err := a.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa.Merged) != string(sb.Merged) {
		t.Fatal("faulted elastic runs are not deterministic")
	}
	if a.Retry != b.Retry {
		t.Fatalf("retry tallies diverge: %+v vs %+v", a.Retry, b.Retry)
	}
	if a.Retry.Faults == 0 || a.Retry.Retries == 0 {
		t.Fatalf("retry tally %+v, want injected faults and retries", a.Retry)
	}
}

// TestRetryTallyFoldsIncarnations: a rank killed under an armed fault
// plan reports the retry tallies of its dead and its reborn process
// summed, and the run reports the sum over ranks.
func TestRetryTallyFoldsIncarnations(t *testing.T) {
	opts := elasticOpts(CkptRank0)
	opts.Retry = testRetryPolicy()
	victim := opts.Failures[0].Rank
	c := platform.NewKebnekaiseCluster(2, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, 64)
	c.FS.InjectFaults(*stormPlan())
	dead := c.Nodes[victim].Env
	res, err := Run(c, d.Paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	reborn := c.Nodes[victim].Env
	if reborn == dead {
		t.Fatal("the victim's process was not replaced")
	}
	want := dead.RetryStats
	want.Add(reborn.RetryStats)
	if dead.RetryStats.Ops == 0 || reborn.RetryStats.Ops == 0 || want.Faults == 0 {
		t.Fatalf("dead %+v, reborn %+v: want guarded reads in both processes and injected faults", dead.RetryStats, reborn.RetryStats)
	}
	if got := res.PerRank[victim].Retry; got != want {
		t.Errorf("victim retry tally %+v, want dead + reborn %+v", got, want)
	}
	var sum tf.RetryStats
	for r := range res.PerRank {
		if r != victim && res.PerRank[r].Retry != c.Nodes[r].Env.RetryStats {
			t.Errorf("rank %d retry tally %+v, want its process's %+v", r, res.PerRank[r].Retry, c.Nodes[r].Env.RetryStats)
		}
		sum.Add(res.PerRank[r].Retry)
	}
	if res.Retry != sum {
		t.Errorf("run retry tally %+v, want the sum over ranks %+v", res.Retry, sum)
	}
}

// TestElasticRetryArmedCleanIsByteIdentical: an armed retry policy with no
// faults injected leaves the run byte-identical to the unarmed run — the
// guard path adds no simulated time and no records.
func TestElasticRetryArmedCleanIsByteIdentical(t *testing.T) {
	base := runRanks(t, 2, 64, defaultOpts())
	opts := defaultOpts()
	opts.Retry = testRetryPolicy()
	armed := runRanks(t, 2, 64, opts)
	if base.WallSeconds != armed.WallSeconds {
		t.Fatalf("wall diverges: %.9fs vs %.9fs", base.WallSeconds, armed.WallSeconds)
	}
	sa, err := base.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := armed.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa.Merged) != string(sb.Merged) {
		t.Fatal("armed-but-clean retry policy changed the serialized log")
	}
	clean := armed.Retry
	clean.Ops = 0 // guarded reads are counted with or without faults
	if clean != (tf.RetryStats{}) || armed.Retry.Ops == 0 {
		t.Fatalf("clean run retry tally %+v, want guarded reads and no fault activity", armed.Retry)
	}
}

// TestElasticSoleRankAborts: the last live rank dying in elastic mode is a
// structured job abort (no surviving peers), not a barrier panic.
func TestElasticSoleRankAborts(t *testing.T) {
	opts := defaultOpts()
	opts.Elastic = true
	opts.Checkpoint = CheckpointPolicy{Pattern: CkptRank0, EverySteps: 1, Dir: ckptDir}
	opts.Failures = []FailureEvent{{Rank: 0, Step: 2, RebootDelay: sim.Second}}
	c := platform.NewKebnekaiseCluster(1, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, 64)
	_, err := Run(c, d.Paths, opts)
	if !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("err = %v, want ErrNoSurvivors", err)
	}
}

// TestElasticValidate pins the mode's option constraints.
func TestElasticValidate(t *testing.T) {
	opts := defaultOpts()
	opts.Elastic = true
	if err := opts.validate(2); err == nil {
		t.Fatal("elastic without a failure event must not validate")
	}
	opts.Failures = []FailureEvent{
		{Rank: 0, Step: 2, RebootDelay: sim.Second},
		{Rank: 1, Step: 3, RebootDelay: sim.Second},
	}
	if err := opts.validate(2); err == nil {
		t.Fatal("elastic with two failure events must not validate")
	}
	opts.Failures = opts.Failures[:1]
	if err := opts.validate(2); err != nil {
		t.Fatalf("elastic with one failure event: %v", err)
	}
}
