package experiments

import (
	"slices"
	"testing"

	"repro/internal/darshan"
	"repro/internal/distributed"
)

// restoredRun is a synthetic failure run that recovered n times and read
// its checkpoint back after the failure instant.
func restoredRun(n int, wall float64) *distributed.Result {
	rec := distributed.FailureRecord{Rank: 1, Step: 3, FailSec: 1, Elastic: true, ElasticSteps: 2, ReshardFiles: 4}
	seg := darshan.MergedSegment{Segment: darshan.Segment{Start: 2}, ID: 1}
	return &distributed.Result{
		WallSeconds: wall,
		Failures:    slices.Repeat([]distributed.FailureRecord{rec}, n),
		Merged: &darshan.MergedLog{
			Names:    map[uint64]string{1: failoverCkptDir + "/ckpt-1"},
			Timeline: []darshan.MergedSegment{seg},
		},
	}
}

// TestOneRecoveryRejectsMissingOrRepeatedFailures: a failure run must
// report exactly one recovery. Zero or two records are an error from
// oneRecovery and from the elastic rung check built on it, on either
// protocol's run, never an index panic.
func TestOneRecoveryRejectsMissingOrRepeatedFailures(t *testing.T) {
	if _, err := oneRecovery(restoredRun(1, 1)); err != nil {
		t.Fatalf("one recovery rejected: %v", err)
	}
	if _, err := restoredAfterFailure(restoredRun(1, 1)); err != nil {
		t.Fatalf("restore after the failure rejected: %v", err)
	}
	for _, n := range []int{0, 2} {
		bad := restoredRun(n, 1)
		if _, err := oneRecovery(bad); err == nil {
			t.Errorf("oneRecovery accepted %d recoveries", n)
		}
		if err := checkElasticRung(restoredRun(1, 2), bad, restoredRun(0, 1), false, 32); err == nil {
			t.Errorf("elastic run with %d recoveries passed the rung check", n)
		}
		if err := checkElasticRung(restoredRun(n, 2), restoredRun(1, 1), restoredRun(0, 1), false, 32); err == nil {
			t.Errorf("rollback run with %d recoveries passed the rung check", n)
		}
	}
}

// TestRestoredAfterFailureRejectsEarlyOrMissingReads: a checkpoint read
// before the failure instant, or none at all, fails the run.
func TestRestoredAfterFailureRejectsEarlyOrMissingReads(t *testing.T) {
	early := restoredRun(1, 1)
	early.Merged.Timeline[0].Start = 0.5
	if _, err := restoredAfterFailure(early); err == nil {
		t.Error("accepted a checkpoint read before the failure")
	}
	none := restoredRun(1, 1)
	none.Merged.Timeline[0].Write = true
	if _, err := restoredAfterFailure(none); err == nil {
		t.Error("accepted a run with no checkpoint reads")
	}
}
