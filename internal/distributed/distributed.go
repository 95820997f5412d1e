// Package distributed drives synchronous data-parallel training across N
// simulated ranks sharing one parallel file system — the multi-node shape
// the paper's single-process profiling cannot express, but whose
// conclusions (shared-PFS contention, stragglers on Lustre) it motivates.
//
// Each rank is one compute node of a platform.Cluster: its own CPU pool,
// GPU, process image and whole-run Darshan runtime, all over a shared
// vfs.FS whose Lustre device serializes metadata RPCs and shares OSS
// bandwidth across ranks. Ranks consume disjoint shards of one shuffled
// file list (tf.data shard semantics) and synchronize gradients after
// every step through a barrier plus a ring-allreduce cost model, so a
// slow rank stalls the whole job — stragglers are visible as barrier
// wait.
//
// At job end each rank's Darshan runtime is exported as its own record
// set and the per-rank logs are reduced with darshan.Merge into aggregate
// counters and a globally ordered, rank-attributed DXT timeline.
package distributed

import (
	"bytes"
	"fmt"

	"repro/internal/darshan"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/tf/tfio"
)

// Options configures one distributed training run.
type Options struct {
	// Threads is the per-rank map parallelism (num_parallel_calls).
	Threads int
	// Batch is the per-rank batch size.
	Batch int
	// Prefetch is the per-rank prefetch depth.
	Prefetch int
	// ProbeSteps caps the lockstep step count (0 = the full job): the
	// short probe windows the cluster tuner measures before committing to
	// a configuration.
	ProbeSteps int
	// Epochs is the job length in epochs (0 or 1 is one). Each epoch
	// reshuffles the full list with seed Shuffle+e before sharding it
	// (NewPlan), the order the clairvoyant prefetcher walks.
	Epochs int
	// Shuffle seeds the shared file shuffle. Every rank shuffles the full
	// list with the same seed and then shards, the standard data-parallel
	// recipe that keeps shards disjoint.
	Shuffle int64
	// AfterRank, when set, runs on the rank's sim thread after the rank
	// finishes (success or failure, before the thread exits) — the hook a
	// per-node prefetcher uses to stop cleanly once its consumer is done.
	AfterRank func(t *sim.Thread, rank int)
	// SharedPaths are files every rank reads once before training (a
	// dataset manifest, a replicated validation set): the overlapping-read
	// pattern that produces Darshan's shared (rank −1) records in the
	// merged log. Empty leaves the run's record set exactly as before.
	SharedPaths []string
	// Model builds one model replica per rank (nil trains without compute,
	// the STREAM configuration).
	Model func() *keras.Model
	// MapFn is the capture function of every rank's input pipeline.
	MapFn tfdata.MapFunc
	// VerifyContent disables the zero-materialization read fast path on
	// every rank.
	VerifyContent bool
	// Checkpoint periodically saves the model on the STDIO layer
	// (CkptNone leaves the run exactly as before).
	Checkpoint CheckpointPolicy
	// Failures schedules node deaths (ascending global steps). Each
	// event kills its rank at the start of the step, reboots and rejoins
	// the node, and rolls every rank back to the last checkpoint.
	Failures []FailureEvent
	// Elastic switches the failure protocol from rollback to
	// continue-on-failure: survivors re-shard the victim's remaining
	// work across N−1 live ranks (Plan.Without) and keep committing
	// steps; the reborn rank restores the last checkpoint alone and is
	// absorbed at the next step boundary (no restore storm, no replay).
	// Requires exactly one failure event.
	Elastic bool
	// Retry arms every rank's transient-read retry policy (tf.Env.Retry):
	// bounded retries with seeded exponential backoff against injected
	// vfs faults. The zero policy retries nothing and leaves runs
	// byte-identical.
	Retry tf.RetryPolicy
}

// RankResult is one rank's outcome.
type RankResult struct {
	Rank int
	// History is the rank's fit history (wait/compute/sync per step).
	// After a failure it is the concatenation of the rank's committed
	// fit segments (a dead incarnation's partial history is lost with
	// its process).
	History *keras.History
	// Snapshot is the rank's Darshan record set exported at job end.
	// For a rank that died, the pre-failure incarnations' records are
	// folded in (darshan.CombineSnapshots).
	Snapshot *darshan.Log
	// ShardFiles is the number of files in the rank's per-epoch shard.
	ShardFiles int
	// Lifecycle is the rank's state transitions; a run without failures
	// has the single initial running event.
	Lifecycle []LifecycleEvent
	// Incarnations counts the rank's processes (1 + times it died).
	Incarnations int
	// Checkpoints records every checkpoint this rank wrote.
	Checkpoints []tfio.CheckpointResult
	// RestoreBytes/RestoreNs total the rank's restore read bursts.
	RestoreBytes int64
	RestoreNs    int64
	// Retry sums the retry-policy tallies of the rank's incarnations,
	// each taken when its process ends (death or job end).
	Retry tf.RetryStats
}

// CkptBytes totals the bytes this rank wrote as checkpoints.
func (r *RankResult) CkptBytes() int64 {
	var n int64
	for _, c := range r.Checkpoints {
		n += c.Bytes
	}
	return n
}

// BusyNs returns the rank's epoch time minus synchronization stalls — the
// time the rank itself needed to produce its work, the quantity whose
// cross-rank spread measures straggling.
func (r *RankResult) BusyNs() int64 {
	if r.History == nil {
		return 0
	}
	return r.History.Duration() - r.History.SyncNs()
}

// Result is a completed distributed run.
type Result struct {
	// PerRank holds one entry per rank, in rank order.
	PerRank []RankResult
	// Merged is the cross-rank reduction of the per-rank Darshan logs.
	Merged *darshan.Log
	// Steps is the nominal lockstep step count of the job (rollback
	// replays re-run some of them; see Failures).
	Steps int
	// WallSeconds is the virtual duration of the whole job.
	WallSeconds float64
	// Failures holds one record per completed failure/recovery cycle.
	Failures []FailureRecord
	// Retry sums the ranks' retry tallies.
	Retry tf.RetryStats
}

// LogSet is the serialized Darshan artifacts of one cluster run: the
// merged cross-rank log plus one single-process log per rank, the file
// set Darshan's MPI build leaves behind (shared reduction + per-rank
// logs).
type LogSet struct {
	// Merged is the merged-kind darshan.log: header with nprocs = ranks,
	// rank −1 shared records, rank-attributed DXT timeline.
	Merged []byte
	// PerRank holds one single-process darshan log per rank, rank order.
	PerRank [][]byte
}

// SerializeLogs writes the run's Darshan record sets as real log files:
// one merged log for the whole cluster run and one per-rank log each, all
// round-trippable through darshan.ReadLog.
func (r *Result) SerializeLogs() (*LogSet, error) {
	var merged bytes.Buffer
	if err := r.Merged.Write(&merged); err != nil {
		return nil, fmt.Errorf("distributed: merged log: %w", err)
	}
	set := &LogSet{Merged: merged.Bytes(), PerRank: make([][]byte, len(r.PerRank))}
	for i := range r.PerRank {
		var buf bytes.Buffer
		if err := r.PerRank[i].Snapshot.Write(&buf); err != nil {
			return nil, fmt.Errorf("distributed: rank %d log: %w", i, err)
		}
		set.PerRank[i] = buf.Bytes()
	}
	return set, nil
}

// validate checks that the policies are well formed for the rank count.
func (o *Options) validate(ranks int) error {
	if o.Threads < 1 {
		return fmt.Errorf("distributed: invalid threads %d", o.Threads)
	}
	if o.Prefetch < 0 {
		return fmt.Errorf("distributed: invalid prefetch %d", o.Prefetch)
	}
	if o.Checkpoint.Pattern != CkptNone {
		if o.Checkpoint.EverySteps < 1 {
			return fmt.Errorf("distributed: checkpoint needs EverySteps >= 1, got %d", o.Checkpoint.EverySteps)
		}
		if o.Checkpoint.Dir == "" {
			return fmt.Errorf("distributed: checkpoint needs a directory")
		}
	}
	prev := 0
	for i, ev := range o.Failures {
		if ev.Rank < 0 || ev.Rank >= ranks {
			return fmt.Errorf("distributed: failure %d targets rank %d of %d", i, ev.Rank, ranks)
		}
		if ev.Step <= prev {
			return fmt.Errorf("distributed: failure steps must be ascending and >= 1, got %d after %d", ev.Step, prev)
		}
		prev = ev.Step
	}
	if o.Elastic && len(o.Failures) != 1 {
		return fmt.Errorf("distributed: elastic mode needs exactly one failure event, got %d", len(o.Failures))
	}
	return nil
}

// Run executes one synchronous data-parallel training job over the
// cluster: the run plan (NewPlan) fixes every rank's file sequence and the
// lockstep step count, every rank builds map→batch→prefetch over its
// sequence, fits its model replica in lockstep with the others, and
// exports its Darshan record set. The per-rank sets are merged before
// returning.
func Run(c *platform.Cluster, paths []string, opts Options) (*Result, error) {
	ranks := len(c.Nodes)
	if ranks == 0 {
		return nil, fmt.Errorf("distributed: cluster has no nodes")
	}
	if err := opts.validate(ranks); err != nil {
		return nil, err
	}
	plan, err := NewPlan(paths, opts.Shuffle, ranks, opts.Epochs, opts.Batch)
	if err != nil {
		return nil, err
	}
	if opts.ProbeSteps > 0 {
		plan.Steps = min(plan.Steps, opts.ProbeSteps)
	}
	steps := plan.Steps
	for i, ev := range opts.Failures {
		if ev.Step > steps {
			return nil, fmt.Errorf("distributed: failure %d at step %d beyond the job's %d steps", i, ev.Step, steps)
		}
	}

	d := newDriver(c, opts, plan)
	res := &Result{Steps: steps, PerRank: make([]RankResult, ranks)}
	d.res = res
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		c.K.Spawn(fmt.Sprintf("rank%d", r), func(t *sim.Thread) {
			if opts.AfterRank != nil {
				defer opts.AfterRank(t, r)
			}
			errs[r] = d.runRank(t, r)
		})
	}
	if err := c.K.Run(); err != nil {
		return nil, err
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("distributed: rank %d: %w", r, err)
		}
	}
	res.WallSeconds = sim.Seconds(c.K.Now())
	res.Failures = d.failureRecords()

	// Job-end export of each rank's Darshan record set — with a dead
	// incarnation's records folded in where a rank died — then the
	// cross-rank reduction.
	snaps := make([]*darshan.Log, ranks)
	for r, rt := range c.Runtimes() {
		final := rt.Export(c.K.Now())
		snaps[r] = darshan.CombineSnapshots(r, append(d.preFail[r], final)...)
		rr := &res.PerRank[r]
		rr.Snapshot = snaps[r]
		// Dead incarnations added their tallies at the death instant.
		rr.Retry.Add(c.Nodes[r].Env.RetryStats)
		res.Retry.Add(rr.Retry)
	}
	res.Merged = darshan.Merge(snaps)
	return res, nil
}

// streamModel is a compute-free, zero-parameter model: STREAM (I/O-only)
// runs go through the same keras.Fit lockstep loop and History accounting
// as model runs, with no device step and no gradient payload.
func streamModel() *keras.Model { return &keras.Model{Name: "stream"} }
