package distributed

import (
	"fmt"

	"repro/internal/darshan"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tf"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/tf/tfio"
)

// This file is the failure-aware half of the driver: checkpoint policies,
// the failure schedule, the per-rank lifecycle machinery and the
// death/rejoin/restore protocol. The happy path (no failures, no
// checkpoints) runs through exactly the same event loop with every hook
// inert, and stays byte-identical to the pre-failure driver — the hooks
// are memory-only until a schedule arms them.

// CheckpointPattern selects who writes checkpoints.
type CheckpointPattern int

const (
	// CkptNone disables checkpointing.
	CkptNone CheckpointPattern = iota
	// CkptRank0 is the chief-writes pattern: rank 0 saves the replicated
	// model for everyone (all ranks restore from rank 0's files, the
	// shared-read burst).
	CkptRank0
	// CkptAllRanks has every rank save its own copy under Dir/rank<r>/
	// (per-rank optimizer shards; each rank restores its own files).
	CkptAllRanks
)

// CheckpointPolicy configures periodic model saves on the STDIO layer.
type CheckpointPolicy struct {
	Pattern CheckpointPattern
	// EverySteps saves after every n-th committed global step.
	EverySteps int
	// Dir is the checkpoint directory on the shared PFS.
	Dir string
}

// prefix returns the checkpoint prefix writing rank r uses for global
// step s. Restoring ranks use the writer's prefix: readRank(r) below.
func (p CheckpointPolicy) prefix(r, s int) string {
	if p.Pattern == CkptAllRanks {
		return fmt.Sprintf("%s/rank%d/ckpt-%04d", p.Dir, r, s)
	}
	return fmt.Sprintf("%s/ckpt-%04d", p.Dir, s)
}

// writes reports whether rank r writes checkpoints under the pattern.
func (p CheckpointPolicy) writes(r int) bool {
	switch p.Pattern {
	case CkptRank0:
		return r == 0
	case CkptAllRanks:
		return true
	}
	return false
}

// lastBefore returns the newest checkpointed global step strictly before
// step s (0 = none): the step a failure at s rolls back to.
func (p CheckpointPolicy) lastBefore(s int) int {
	if p.Pattern == CkptNone || p.EverySteps < 1 {
		return 0
	}
	return p.EverySteps * ((s - 1) / p.EverySteps)
}

// FailureEvent schedules one rank's death: the rank's process dies at
// the beginning of global step Step (having committed Step−1), its node
// reboots for RebootDelay of simulated time, rejoins with cold caches
// and a fresh Darshan runtime, and the whole job rolls back to the last
// checkpoint (synchronous data-parallel restart: work since the last
// save is lost and replayed by everyone).
type FailureEvent struct {
	Rank int
	// Step is the 1-based global step at whose start the rank dies.
	Step int
	// RebootDelay is the node's death-to-rejoin time.
	RebootDelay sim.Duration
}

// LifecycleState labels one phase of a rank's life.
type LifecycleState string

const (
	LifeRunning   LifecycleState = "running"
	LifeFailed    LifecycleState = "failed"
	LifeRejoined  LifecycleState = "rejoined"
	LifeRestoring LifecycleState = "restoring"
)

// LifecycleEvent is one per-rank lifecycle transition.
type LifecycleEvent struct {
	State LifecycleState
	// Step is the global step the transition is anchored to (the next
	// step to run for running, the fatal step for failed).
	Step int
	// TimeSec is the virtual time of the transition, seconds since job
	// start.
	TimeSec float64
}

// FailureRecord is one completed failure/recovery cycle of the job.
type FailureRecord struct {
	Rank int
	// Step is the global step the rank died at the start of.
	Step int
	// FailSec/RejoinSec bound the node's downtime (virtual seconds).
	FailSec   float64
	RejoinSec float64
	// CheckpointStep is the global step everyone rolled back to (0 =
	// no checkpoint existed; training replayed from step 1). In elastic
	// mode only the reborn rank reads it (the catch-up burst).
	CheckpointStep int
	// ResumeStep is the first global step replayed after the restore;
	// in elastic mode, the first generation the reborn rank took part in.
	ResumeStep int
	// RestoreBytes/RestoreSeconds total the restore read burst across
	// all ranks (bytes read from checkpoint files, summed rank time).
	RestoreBytes   int64
	RestoreSeconds float64
	// Elastic marks a continue-on-failure recovery: no rollback, the
	// survivors re-sharded the victim's remaining work and kept going.
	Elastic bool
	// ElasticSteps is the continuation segment's lockstep step count.
	ElasticSteps int
	// ReshardFiles is how many of the victim's remaining files the
	// survivors absorbed.
	ReshardFiles int
}

// rankKilled is the panic sentinel a scheduled death throws from inside
// the training loop; the rank runner recovers it and runs the recovery
// protocol. Any other panic is re-raised.
type rankKilled struct{ step int }

// failureState is the driver-global blackboard of one failure event,
// written by the dying rank and read by every rank at the recovery
// rendezvous.
type failureState struct {
	ev       FailureEvent
	failNs   int64
	rejoinNs int64
	ckptStep int // rollback target, fixed at death time
	// Restore-burst accounting across all ranks for this event.
	restoreBytes   int64
	restoreStartNs int64
	restoreEndNs   int64
	// Elastic recovery outcome (zero under rollback): the reborn rank's
	// first participating generation and the continuation plan's shape.
	resumeStep   int
	elastic      bool
	elasticSteps int
	reshardFiles int
}

// driver is one distributed run's shared state: the run plan, the
// elastic step barrier and the failure blackboards.
type driver struct {
	c    *platform.Cluster
	opts Options
	plan *Plan
	// bar is the per-step gradient barrier. A single-party barrier is a
	// no-op, keeping one-rank runs bit-identical to the plain
	// single-process training loop.
	bar *sim.Barrier
	// halted[r] is set when rank r observes a broken barrier generation
	// (a peer died); its fit then stops cooperatively at the next step
	// boundary and the rank parks at the recovery rendezvous.
	halted []bool
	// fails[i] is event i's blackboard; rendezvous[i] gathers all ranks
	// (survivors + the reborn one) before the rollback replay.
	fails      []failureState
	rendezvous []*sim.Barrier
	// preFail[r] collects rank r's dead incarnations' snapshots, exported
	// at the death instant (the simulator's failure oracle preserves what
	// a real crash would lose) and folded into the rank's job-end export.
	preFail [][]*darshan.Log
	// cont is the elastic continuation plan (Plan.Without), computed once
	// at the failure instant when Options.Elastic is set; contTotal is the
	// job's total barrier generations under it (elastic.go).
	cont      *Plan
	contTotal int
	res       *Result
}

func newDriver(c *platform.Cluster, opts Options, plan *Plan) *driver {
	ranks := len(c.Nodes)
	d := &driver{
		c: c, opts: opts, plan: plan,
		bar:     sim.NewBarrier(ranks),
		halted:  make([]bool, ranks),
		fails:   make([]failureState, len(opts.Failures)),
		preFail: make([][]*darshan.Log, ranks),
	}
	for i, ev := range opts.Failures {
		d.fails[i] = failureState{ev: ev}
		d.rendezvous = append(d.rendezvous, sim.NewBarrier(ranks))
	}
	return d
}

// drainBarrier occupies the rank's slot for every generation its peers
// still run after an unrecoverable per-rank error, so they do not park
// forever and the job surfaces the error instead of a kernel deadlock.
// The rank has taken part in the generations up to global step from; the
// peers run (or replay, after a rollback) the rest of the job's steps. In
// elastic mode the job's length is the continuation's generation total,
// so the drain is generation-based once a continuation exists.
func (d *driver) drainBarrier(t *sim.Thread, from int) {
	if d.cont != nil {
		// Each Await participates in exactly one generation, so the count
		// is fixed up front (a gen-polling loop would spin forever on a
		// single-party barrier whose generations cost no simulated time).
		for g := d.bar.Gen(); g < d.contTotal; g++ {
			d.bar.Await(t)
		}
		return
	}
	for s := from; s < d.plan.Steps; s++ {
		d.bar.Await(t)
	}
}

// failureRecords summarizes the blackboards after the job completes.
func (d *driver) failureRecords() []FailureRecord {
	var out []FailureRecord
	for i := range d.fails {
		fs := &d.fails[i]
		rs := fs.ckptStep + 1
		if fs.resumeStep > 0 {
			rs = fs.resumeStep
		}
		out = append(out, FailureRecord{
			Rank:           fs.ev.Rank,
			Step:           fs.ev.Step,
			FailSec:        sim.Seconds(fs.failNs),
			RejoinSec:      sim.Seconds(fs.rejoinNs),
			CheckpointStep: fs.ckptStep,
			ResumeStep:     rs,
			RestoreBytes:   fs.restoreBytes,
			RestoreSeconds: sim.Seconds(fs.restoreEndNs - fs.restoreStartNs),
			Elastic:        fs.elastic,
			ElasticSteps:   fs.elasticSteps,
			ReshardFiles:   fs.reshardFiles,
		})
	}
	return out
}

// lifecycle/failure/checkpoint callback: one Callback per rank per fit
// segment, translating segment-local steps to global ones. All of its
// work is memory-only until a failure schedule or checkpoint policy arms
// it, so unarmed runs stay byte-identical.
type rankCallback struct {
	d    *driver
	rank int
	// base is the number of global steps committed before this segment.
	base int
	// nextEv indexes the first failure event this rank has not yet
	// processed (events fire in ascending global-step order).
	nextEv int
	model  *keras.Model
	result *RankResult
}

func (cb *rankCallback) OnTrainBegin(t *sim.Thread, env *tf.Env, m *keras.Model) { cb.model = m }
func (cb *rankCallback) OnTrainEnd(t *sim.Thread, env *tf.Env)                   {}

func (cb *rankCallback) OnStepBegin(t *sim.Thread, env *tf.Env, step int) {
	d := cb.d
	if cb.nextEv >= len(d.fails) {
		return
	}
	ev := d.fails[cb.nextEv].ev
	if ev.Rank == cb.rank && cb.base+step == ev.Step {
		panic(rankKilled{step: ev.Step})
	}
}

func (cb *rankCallback) OnStepEnd(t *sim.Thread, env *tf.Env, step int) {
	d := cb.d
	if d.halted[cb.rank] {
		// The barrier broke during this step's allreduce: the step did
		// not commit globally, so nothing may be saved for it.
		return
	}
	p := d.opts.Checkpoint
	g := cb.base + step
	if !p.writes(cb.rank) || p.EverySteps < 1 || g%p.EverySteps != 0 {
		return
	}
	res, err := tfio.WriteCheckpoint(t, env, p.prefix(cb.rank, g), cb.model.Vars)
	if err != nil {
		panic(fmt.Sprintf("distributed: rank %d checkpoint at step %d: %v", cb.rank, g, err))
	}
	cb.result.Checkpoints = append(cb.result.Checkpoints, res)
}

// mark appends a lifecycle transition for the rank at the current time.
func (d *driver) mark(rr *RankResult, t *sim.Thread, st LifecycleState, step int) {
	rr.Lifecycle = append(rr.Lifecycle, LifecycleEvent{
		State: st, Step: step, TimeSec: sim.Seconds(t.Now()),
	})
}

// mergeHistories folds per-segment fit histories into one job history:
// step arrays concatenate (rollback replays appear as repeated steps, as
// they genuinely ran), counters sum, and the span covers first start to
// last end. A dead incarnation's partial history is lost with its
// process, so a failed rank's merged history holds only committed
// segments plus the replay.
func mergeHistories(segs []*keras.History) *keras.History {
	if len(segs) == 0 {
		// An elastic victim commits no fit segments: its partial segment
		// died with the process and its remaining work moved to survivors.
		return &keras.History{}
	}
	if len(segs) == 1 {
		return segs[0]
	}
	out := &keras.History{StartNs: segs[0].StartNs}
	for _, h := range segs {
		out.StepsRun += h.StepsRun
		out.StepWaitNs = append(out.StepWaitNs, h.StepWaitNs...)
		out.StepComputeNs = append(out.StepComputeNs, h.StepComputeNs...)
		out.StepSyncNs = append(out.StepSyncNs, h.StepSyncNs...)
		out.SamplesSeen += h.SamplesSeen
		out.BytesSeen += h.BytesSeen
		out.EndNs = h.EndNs
	}
	return out
}

// runRank is one rank's whole job: an event loop over fit segments with
// the per-rank lifecycle running → failed → rejoined → restoring →
// running. Every segment reads a suffix of a plan sequence: the first one
// all of the rank's sequence, a rollback replay the part after the
// rollback step's batches, an elastic survivor its continuation sequence.
// A run without failure events executes exactly one segment. An error
// drains the barrier generations the peers still run before returning.
func (d *driver) runRank(t *sim.Thread, r int) (err error) {
	opts := &d.opts
	ranks := len(d.c.Nodes)
	node := d.c.Nodes[r]
	d.armEnv(node.Env, r)
	// base is the number of global steps committed before the current
	// segment; seq[off:] is the segment's input and segSteps its length.
	base, seq, off, segSteps := 0, d.plan.Seq[r], 0, d.plan.Steps
	defer func() {
		if err != nil {
			d.drainBarrier(t, base)
		}
	}()
	newModel := func() *keras.Model {
		if opts.Model != nil {
			return opts.Model()
		}
		return streamModel()
	}
	model := newModel()
	// Ring allreduce: every rank sends and receives 2*(N-1)/N of the
	// gradient payload at storage.LinkBandwidth (the per-message link
	// latency is not charged); all ranks pay it concurrently after the
	// step barrier. A broken generation means a peer died
	// mid-step: the step did not commit, so the gradient exchange is
	// skipped and the rank stops at the next step boundary.
	gradCostFor := func(n int) sim.Duration {
		if n <= 1 {
			return 0
		}
		bytes := float64(model.ParamBytes())
		return sim.Duration(2 * float64(n-1) / float64(n) * bytes / storage.LinkBandwidth * 1e9)
	}
	gradCost := gradCostFor(ranks)
	allReduce := func(t *sim.Thread, step int) {
		if d.halted[r] {
			return
		}
		if d.bar.AwaitBroken(t) {
			d.halted[r] = true
			return
		}
		if gradCost > 0 {
			t.Sleep(gradCost)
		}
	}

	// Shared warm-up reads before the pipeline starts: every rank
	// touches the same files, so the merged log carries rank −1 shared
	// records for them.
	for _, p := range opts.SharedPaths {
		if _, err := tfio.ReadFile(t, node.Env, p); err != nil {
			return err
		}
	}

	rr := &d.res.PerRank[r]
	rr.Rank = r
	rr.Incarnations = 1
	rr.ShardFiles = d.plan.ShardFiles[r]
	d.mark(rr, t, LifeRunning, 1)
	cb := &rankCallback{d: d, rank: r, result: rr}
	var histories []*keras.History
	for {
		ds := tfdata.FromFiles(node.Env, seq[off:]).
			Map(opts.MapFn, opts.Threads).Batch(opts.Batch).Prefetch(opts.Prefetch)
		it, err := ds.MakeIterator()
		if err != nil {
			return err
		}
		cb.base = base
		hist, killed, err := d.fitSegment(t, node, model, it, cb, allReduce, segSteps)
		if err != nil {
			return err
		}
		if killed == 0 && !d.halted[r] {
			// Ran to the end of the job's steps.
			histories = append(histories, hist)
			break
		}

		// A failure event is in progress: this rank either died (killed
		// is the fatal step) or observed the broken barrier and halted.
		if cb.nextEv >= len(d.fails) {
			return fmt.Errorf("distributed: rank %d: barrier broke with no scheduled failure event", r)
		}
		if opts.Elastic {
			if killed > 0 {
				if err := d.elasticVictim(t, r, killed, newModel); err != nil {
					return err
				}
				break
			}
			// Survivor: the broken step committed locally (the gradient
			// exchange was skipped), so its history stands. Adopt the
			// continuation sequence and keep going with N−1 peers.
			histories = append(histories, hist)
			fs := &d.fails[cb.nextEv]
			d.ensureContinuation()
			d.mark(rr, t, LifeDegraded, fs.ev.Step)
			d.halted[r] = false
			cb.nextEv++
			base, seq, off, segSteps = fs.ev.Step, d.cont.Seq[r], 0, d.cont.Steps
			gradCost = gradCostFor(ranks - 1)
			d.mark(rr, t, LifeResharded, base+1)
			continue
		}
		fs := &d.fails[cb.nextEv]
		if killed > 0 {
			if node, model, err = d.failover(t, r, killed, fs, newModel); err != nil {
				return err
			}
			if ranks > 1 {
				d.bar.Join(t)
			}
		} else {
			histories = append(histories, hist)
		}

		// Recovery rendezvous: survivors park here until the reborn rank
		// is back (straggler time), then everyone restores the rollback
		// checkpoint concurrently — the restore read storm — and replays
		// from the rollback step: steps 1..base committed their batches.
		d.rendezvous[cb.nextEv].Await(t)
		base, off, segSteps = fs.ckptStep, fs.ckptStep*opts.Batch, d.plan.Steps-fs.ckptStep
		if err := d.restore(t, r, node.Env, model, fs); err != nil {
			return err
		}
		d.halted[r] = false
		cb.nextEv++
		d.mark(rr, t, LifeRunning, base+1)
	}
	rr.History = mergeHistories(histories)
	return nil
}

// fitSegment runs one fit over the segment's iterator, catching the
// scheduled-death panic: a killed rank's partial fit history dies with
// the process, its Darshan records and retry tally are taken at the death
// instant (the simulator's failure oracle) and the dead incarnation's
// pipeline threads are reaped (a real crash takes its threads with it).
func (d *driver) fitSegment(t *sim.Thread, node *platform.Machine, model *keras.Model, it *tfdata.Iterator, cb *rankCallback, allReduce func(*sim.Thread, int), steps int) (hist *keras.History, killed int, err error) {
	r := cb.rank
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		k, ok := p.(rankKilled)
		if !ok {
			panic(p)
		}
		killed = k.step
		d.preFail[r] = append(d.preFail[r], node.Darshan.Export(t.Now()))
		d.res.PerRank[r].Retry.Add(node.Env.RetryStats)
		it.Close(t)
	}()
	hist, err = model.Fit(t, node.Env, it, keras.FitOptions{
		Steps:     steps,
		AllReduce: allReduce,
		Callbacks: []keras.Callback{cb},
		Halt:      func(step int) bool { return d.halted[r] },
	})
	return hist, 0, err
}

// failover runs a scheduled death's victim side up to its rejoin: record
// the failure on the event's blackboard, leave the step barrier (breaking
// the generation the peers are parked on), kill the node and — when a
// peer survives to carry the job — reboot it into a fresh process with a
// fresh model. Under rollback the rank rejoins at the step after the
// checkpoint; an elastic victim first computes the continuation plan and
// rejoins at its fatal step.
func (d *driver) failover(t *sim.Thread, r, killed int, fs *failureState, newModel func() *keras.Model) (*platform.Machine, *keras.Model, error) {
	rr := &d.res.PerRank[r]
	fs.failNs = t.Now()
	fs.ckptStep = d.opts.Checkpoint.lastBefore(killed)
	d.mark(rr, t, LifeFailed, killed)
	rejoinStep, survivors := fs.ckptStep+1, true
	if d.opts.Elastic {
		// The plan must exist before the survivors wake from the broken
		// generation; the victim computes it (deterministically) on its
		// way out.
		d.ensureContinuation()
		rejoinStep = killed
		survivors = d.bar.Leave(t)
	} else if len(d.c.Nodes) > 1 {
		d.bar.Leave(t)
	}
	d.c.KillNode(r)
	if !survivors {
		return nil, nil, fmt.Errorf("distributed: rank %d died at step %d: %w", r, killed, ErrNoSurvivors)
	}
	t.Sleep(fs.ev.RebootDelay)
	node := d.c.RejoinNode(r)
	d.armEnv(node.Env, r)
	model := newModel()
	rr.Incarnations++
	fs.rejoinNs = t.Now()
	d.mark(rr, t, LifeRejoined, rejoinStep)
	return node, model, nil
}

// restore replays the recovery read burst for one rank: the rank re-reads
// the event's rollback checkpoint through the buffered STDIO reader (rank
// 0's files under CkptRank0 — the shared-file read storm — or its own
// under CkptAllRanks). The burst is booked on the rank and on the event,
// whose restore window spans the earliest start to the latest end across
// ranks.
func (d *driver) restore(t *sim.Thread, r int, env *tf.Env, model *keras.Model, fs *failureState) error {
	rr := &d.res.PerRank[r]
	d.mark(rr, t, LifeRestoring, fs.ckptStep+1)
	start := t.Now()
	if fs.restoreStartNs == 0 || start < fs.restoreStartNs {
		fs.restoreStartNs = start
	}
	var n int64
	if p := d.opts.Checkpoint; fs.ckptStep >= 1 && p.Pattern != CkptNone {
		readRank := 0
		if p.Pattern == CkptAllRanks {
			readRank = r
		}
		var err error
		if n, err = tfio.RestoreCheckpoint(t, env, p.prefix(readRank, fs.ckptStep), model.Vars); err != nil {
			return err
		}
	}
	rr.RestoreBytes += n
	rr.RestoreNs += t.Now() - start
	fs.restoreBytes += n
	if t.Now() > fs.restoreEndNs {
		fs.restoreEndNs = t.Now()
	}
	return nil
}
