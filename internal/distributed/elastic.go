package distributed

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/tf/keras"
)

// Elastic continue-on-failure mode: instead of rolling every rank back to
// the last checkpoint when a node dies, the survivors observe the broken
// barrier generation, deterministically re-shard the victim's remaining
// epoch work across the N−1 live ranks, and keep committing steps. The
// reborn rank restores the last checkpoint alone (a catch-up read burst,
// not a cluster-wide restore storm) and is absorbed at the next step
// boundary via Barrier.Join, draining the remaining generations until the
// job ends. The failover invariants get elastic counterparts: exactly one
// rank restores, and total dataset bytes read are conserved modulo the
// work re-read by the re-sharding.

// Elastic lifecycle states (extending the rollback set in failover.go):
// a survivor marks degraded when it observes the broken generation and
// resharded when it adopts its continuation shard.
const (
	LifeDegraded  LifecycleState = "degraded"
	LifeResharded LifecycleState = "resharded"
)

// ErrNoSurvivors is returned (wrapped) when the last live rank dies: with
// nobody left to carry the epoch, elastic mode aborts the job with a
// structured error instead of panicking in the barrier.
var ErrNoSurvivors = errors.New("distributed: no surviving ranks")

// ensureContinuation computes the elastic continuation once per job. It
// is a pure function of the run plan and the failure event, so whichever
// rank reaches it first (the victim, before it leaves the barrier) writes
// what every other rank would have written.
func (d *driver) ensureContinuation() {
	if d.cont != nil {
		return
	}
	fs := &d.fails[0]
	// The victim died at the start of step brk, before its iterator pull,
	// so its batches for steps brk.. remain unconsumed; the survivors
	// commit brk without gradients and continue after it.
	brk := fs.ev.Step
	cont, reshard := d.plan.Without(fs.ev.Rank, brk, d.opts.Batch)
	d.cont = cont
	d.contTotal = brk + cont.Steps

	fs.elastic = true
	fs.elasticSteps = cont.Steps
	fs.reshardFiles = reshard
}

// armEnv applies the run's content verification and arms the rank's
// process-wide transient-retry policy, giving each rank its own jitter
// stream. Reapplied after a rejoin (the reborn process starts from the
// same policy, so its backoff schedule is reproducible run-to-run).
func (d *driver) armEnv(env *tf.Env, r int) {
	env.VerifyContent = d.opts.VerifyContent
	pol := d.opts.Retry
	if pol.Enabled() {
		pol.Seed += int64(r) * 7919
	}
	env.Retry = pol
}

// elasticVictim runs the victim's side of the elastic protocol after its
// scheduled death: leave the barrier (breaking the generation the
// survivors are parked on), reboot, restore the last checkpoint alone —
// the catch-up read burst — then rejoin the barrier and drain the
// remaining generations until the survivors finish the epoch.
func (d *driver) elasticVictim(t *sim.Thread, r, killed int, newModel func() *keras.Model) error {
	fs := &d.fails[0]
	node, model, err := d.failover(t, r, killed, fs, newModel)
	if err != nil {
		return err
	}
	// Catch-up restore: the victim alone re-reads the rollback checkpoint
	// (survivors never stopped, so nobody else touches the checkpoint
	// files — the elastic no-restore-storm invariant).
	if fs.ckptStep >= 1 && d.opts.Checkpoint.Pattern != CkptNone {
		if err := d.restore(t, r, node.Env, model, fs); err != nil {
			return err
		}
	}

	// Absorb at the next step boundary: Join raises the quorum, and the
	// generation counter says how far the survivors have advanced — the
	// victim participates in every remaining generation so the barrier
	// math stays whole. (No park can intervene between Join and Gen in
	// the cooperative kernel, so the count is consistent.)
	d.bar.Join(t)
	g := d.bar.Gen()
	fs.resumeStep = g + 1
	d.mark(&d.res.PerRank[r], t, LifeRunning, g+1)
	for ; g < d.contTotal; g++ {
		d.bar.Await(t)
	}
	return nil
}
