package distributed

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/darshan"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/vfs"
)

const ckptDir = platform.KebnekaiseLustre + "/ckpt"

// failoverOpts is defaultOpts at batch 4 (so a 128-file/4-rank corpus
// yields 8 lockstep steps) with checkpointing every 2 steps and rank 1
// dying at the start of global step 5 (steps 1..4 committed, checkpoints
// at 2 and 4, rollback to 4, replay 5..8).
func failoverOpts(pattern CheckpointPattern) Options {
	opts := defaultOpts()
	opts.Batch = 4
	opts.Checkpoint = CheckpointPolicy{Pattern: pattern, EverySteps: 2, Dir: ckptDir}
	opts.Failures = []FailureEvent{{Rank: 1, Step: 5, RebootDelay: 2 * sim.Second}}
	return opts
}

// runRanksStdioDXT is runRanks on a cluster whose Darshan config also
// traces stdio ops as DXT segments, so buffered checkpoint writes and
// restore read bursts land on the merged timeline.
func runRanksStdioDXT(t *testing.T, ranks, files int, opts Options) *Result {
	t.Helper()
	cfg := darshan.DefaultConfig()
	cfg.DXTStdio = true
	c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true, DarshanConfig: &cfg})
	d := buildDataset(t, c, files)
	res, err := Run(c, d.Paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ckptStdioBytesWritten sums STDIO bytes written to checkpoint files in
// the merged log. Checkpoints go through fwrite, so they appear in the
// STDIO module and not in POSIX (the paper's Fig. 6 asymmetry).
func ckptStdioBytesWritten(m *darshan.Log) int64 {
	var n int64
	for i := range m.Stdio {
		if strings.HasPrefix(m.Names[m.Stdio[i].ID], ckptDir+"/") {
			n += m.Stdio[i].Counters[darshan.STDIO_BYTES_WRITTEN]
		}
	}
	return n
}

func lifecycleStates(rr *RankResult) []LifecycleState {
	var out []LifecycleState
	for _, e := range rr.Lifecycle {
		out = append(out, e.State)
	}
	return out
}

func TestFailoverRecovery(t *testing.T) {
	const ranks, files = 4, 128
	res := runRanksStdioDXT(t, ranks, files, failoverOpts(CkptRank0))
	if res.Steps != 8 {
		t.Fatalf("steps = %d, want 8", res.Steps)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("got %d failure records, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	if f.Rank != 1 || f.Step != 5 {
		t.Fatalf("failure record %+v, want rank 1 step 5", f)
	}
	if f.CheckpointStep != 4 || f.ResumeStep != 5 {
		t.Fatalf("rollback %d/resume %d, want 4/5", f.CheckpointStep, f.ResumeStep)
	}
	if f.FailSec <= 0 || f.RejoinSec-f.FailSec < 1.999999 {
		t.Fatalf("downtime FailSec=%v RejoinSec=%v, want >= 2s apart", f.FailSec, f.RejoinSec)
	}

	victim := &res.PerRank[1]
	if victim.Incarnations != 2 {
		t.Fatalf("victim incarnations = %d, want 2", victim.Incarnations)
	}
	wantVictim := []LifecycleState{LifeRunning, LifeFailed, LifeRejoined, LifeRestoring, LifeRunning}
	if got := lifecycleStates(victim); len(got) != len(wantVictim) {
		t.Fatalf("victim lifecycle %v, want %v", got, wantVictim)
	} else {
		for i := range got {
			if got[i] != wantVictim[i] {
				t.Fatalf("victim lifecycle %v, want %v", got, wantVictim)
			}
		}
	}
	surv := &res.PerRank[0]
	wantSurv := []LifecycleState{LifeRunning, LifeRestoring, LifeRunning}
	if got := lifecycleStates(surv); len(got) != 3 || got[0] != wantSurv[0] || got[1] != wantSurv[1] || got[2] != wantSurv[2] {
		t.Fatalf("survivor lifecycle %v, want %v", got, wantSurv)
	}

	// Rank 0 wrote checkpoints at global steps 2, 4 (pre-failure) and 6,
	// 8 (replay); nobody else wrote any.
	if got := len(res.PerRank[0].Checkpoints); got != 4 {
		t.Fatalf("rank 0 wrote %d checkpoints, want 4", got)
	}
	for r := 1; r < ranks; r++ {
		if len(res.PerRank[r].Checkpoints) != 0 {
			t.Fatalf("rank %d wrote checkpoints under CkptRank0", r)
		}
	}

	// Restore burst: every rank re-read the full rollback checkpoint, so
	// per-rank restore bytes equal the write size of ckpt-0004 and the
	// record's total is ranks x that.
	var ckpt4 int64
	for _, c := range res.PerRank[0].Checkpoints {
		if strings.HasSuffix(c.Path, "ckpt-0004") {
			ckpt4 = c.Bytes
		}
	}
	if ckpt4 == 0 {
		t.Fatal("no ckpt-0004 written")
	}
	for r := 0; r < ranks; r++ {
		if res.PerRank[r].RestoreBytes != ckpt4 {
			t.Fatalf("rank %d restored %d bytes, want %d", r, res.PerRank[r].RestoreBytes, ckpt4)
		}
	}
	if f.RestoreBytes != int64(ranks)*ckpt4 {
		t.Fatalf("restore burst %d bytes, want %d", f.RestoreBytes, int64(ranks)*ckpt4)
	}

	// The merged STDIO module carries exactly the written checkpoint
	// bytes on the checkpoint files (no overwrites: replay checkpoints
	// land on steps no incarnation saved before).
	var written int64
	for r := range res.PerRank {
		written += res.PerRank[r].CkptBytes()
	}
	if got := ckptStdioBytesWritten(res.Merged); got != written {
		t.Fatalf("merged STDIO ckpt bytes %d, want %d", got, written)
	}

	// Restore reads appear in the merged DXT timeline only after the
	// failure instant.
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
		t.Fatal("no restore reads in the merged timeline")
	}
	if res.Merged.NProcs != ranks {
		t.Fatalf("merged NProcs = %d, want %d", res.Merged.NProcs, ranks)
	}
}

// TestFailoverRankFactor pins the rank-0 vs all-ranks checkpoint byte
// ratio: the same schedule writes the same model either once (rank 0) or
// once per rank, so totals differ by exactly the rank factor.
func TestFailoverRankFactor(t *testing.T) {
	const ranks, files = 4, 128
	r0 := runRanks(t, ranks, files, failoverOpts(CkptRank0))
	all := runRanks(t, ranks, files, failoverOpts(CkptAllRanks))
	var b0, bAll int64
	for r := 0; r < ranks; r++ {
		b0 += r0.PerRank[r].CkptBytes()
		bAll += all.PerRank[r].CkptBytes()
	}
	if b0 == 0 || bAll != int64(ranks)*b0 {
		t.Fatalf("all-ranks wrote %d bytes, want exactly %d x %d", bAll, ranks, b0)
	}
	// Restore totals are identical: under CkptRank0 every rank reads
	// rank 0's files; under CkptAllRanks each reads its own same-sized
	// copy.
	if r0.Failures[0].RestoreBytes != all.Failures[0].RestoreBytes {
		t.Fatalf("restore bytes differ: %d vs %d", r0.Failures[0].RestoreBytes, all.Failures[0].RestoreBytes)
	}
}

// TestFailoverDeterministic pins the failure path's determinism: two
// identical runs serialize byte-identical merged logs.
func TestFailoverDeterministic(t *testing.T) {
	a := runRanks(t, 2, 64, failoverOpts(CkptAllRanks))
	b := runRanks(t, 2, 64, failoverOpts(CkptAllRanks))
	sa, err := a.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa.Merged) != string(sb.Merged) {
		t.Fatal("failure runs are not deterministic")
	}
}

// TestFailoverNoCheckpoint: a failure without any checkpoint policy
// replays the whole job from step 1 with no restore reads.
func TestFailoverNoCheckpoint(t *testing.T) {
	opts := defaultOpts()
	opts.Batch = 4
	opts.Failures = []FailureEvent{{Rank: 0, Step: 3, RebootDelay: sim.Second}}
	res := runRanks(t, 2, 64, opts)
	f := res.Failures[0]
	if f.CheckpointStep != 0 || f.ResumeStep != 1 {
		t.Fatalf("rollback %d/resume %d, want 0/1", f.CheckpointStep, f.ResumeStep)
	}
	if f.RestoreBytes != 0 {
		t.Fatalf("restored %d bytes without checkpoints", f.RestoreBytes)
	}
}

// TestFailoverSingleRank: a one-rank job can die and recover without any
// barrier peers.
func TestFailoverSingleRank(t *testing.T) {
	opts := defaultOpts()
	opts.Checkpoint = CheckpointPolicy{Pattern: CkptRank0, EverySteps: 1, Dir: ckptDir}
	opts.Failures = []FailureEvent{{Rank: 0, Step: 2, RebootDelay: sim.Second}}
	res := runRanks(t, 1, 64, opts)
	if res.PerRank[0].Incarnations != 2 {
		t.Fatalf("incarnations = %d, want 2", res.PerRank[0].Incarnations)
	}
	if res.Failures[0].CheckpointStep != 1 {
		t.Fatalf("rollback to %d, want 1", res.Failures[0].CheckpointStep)
	}
}

// TestCheckpointRoundTripBytes is the write-then-restore equality check
// for both patterns: what RestoreCheckpoint reads back equals what
// WriteCheckpoint put down, byte for byte, for every restoring rank.
func TestCheckpointRoundTripBytes(t *testing.T) {
	for _, pattern := range []CheckpointPattern{CkptRank0, CkptAllRanks} {
		res := runRanks(t, 2, 64, failoverOpts(pattern))
		for r := range res.PerRank {
			writer := 0
			if pattern == CkptAllRanks {
				writer = r
			}
			var want int64
			for _, c := range res.PerRank[writer].Checkpoints {
				if strings.HasSuffix(c.Path, "ckpt-0004") {
					want = c.Bytes
				}
			}
			if want == 0 {
				t.Fatalf("pattern %d: no rollback checkpoint for rank %d", pattern, r)
			}
			if got := res.PerRank[r].RestoreBytes; got != want {
				t.Fatalf("pattern %d: rank %d restored %d bytes, want %d", pattern, r, got, want)
			}
		}
	}
}

// TestFailoverRestoreErrorSurfaces: a restore that fails after the
// rollback rendezvous must surface as the rank's error. The failed rank
// drains only the generations its peers still replay (from the rollback
// step on); draining the whole job would park it on the barrier after the
// peers finish and turn the restore error into a kernel deadlock.
func TestFailoverRestoreErrorSurfaces(t *testing.T) {
	const ranks, files = 2, 64
	opts := failoverOpts(CkptAllRanks)
	failSec := runRanks(t, ranks, files, opts).Failures[0].FailSec

	c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, files)
	c.K.Spawn("ckpt-loss", func(th *sim.Thread) {
		th.Sleep(sim.Duration((failSec + 0.5) * float64(sim.Second))) // from t=0
		c.FS.RemoveTree(ckptDir + "/rank0")
	})
	_, err := Run(c, d.Paths, opts)
	var dl *sim.DeadlockError
	if errors.As(err, &dl) {
		t.Fatalf("restore error hidden by a deadlock: %v", err)
	}
	if !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v, want the restore's vfs.ErrNotExist", err)
	}
}
