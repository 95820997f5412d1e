package experiments

import (
	"testing"
)

// renderAll runs the given artifacts under cfg and concatenates their
// rendered bodies and metrics into one comparison payload.
func renderAll(t *testing.T, cfg Config, ids []string) string {
	t.Helper()
	results, err := RunAll(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for i, res := range results {
		out += "== " + ids[i] + " ==\n" + res.Render() + RenderMetrics(res.Metrics())
	}
	return out
}

// TestParallelRunnerDeterminism asserts the parallel harness contract:
// running artifacts concurrently (including the sweep points inside fig5,
// fig12 and ablation-prefetch) produces byte-identical output to a serial
// run. The set covers a single-kernel artifact (fig3), multi-machine sweep
// artifacts (fig12, ablation-prefetch) and the workload×mode grid (fig5).
func TestParallelRunnerDeterminism(t *testing.T) {
	ids := []string{"fig3", "fig5", "fig12", "ablation-prefetch"}
	serial := renderAll(t, Config{Scale: 0.02, Parallel: 1}, ids)
	parallel := renderAll(t, Config{Scale: 0.02, Parallel: 4}, ids)
	if serial != parallel {
		t.Fatalf("parallel output diverged from serial output\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	allCores := renderAll(t, Config{Scale: 0.02, Parallel: -1}, ids)
	if serial != allCores {
		t.Fatal("parallel=-1 (all cores) output diverged from serial output")
	}
}

// TestParallelRanksDeterminism asserts the rank-sweep points (independent
// clusters) are byte-identical run concurrently vs serially.
func TestParallelRanksDeterminism(t *testing.T) {
	serial := renderAll(t, Config{Scale: 0.02, Parallel: 1}, []string{"ranks"})
	parallel := renderAll(t, Config{Scale: 0.02, Parallel: 4}, []string{"ranks"})
	if serial != parallel {
		t.Fatalf("parallel ranks sweep diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestParallelFailoverDeterminism asserts the failover sweep points
// (three failure variants per rank count, each its own cluster and
// kernel) are byte-identical run concurrently vs serially — the
// serial/parallel invariant the failure path must uphold like every
// other experiment.
func TestParallelFailoverDeterminism(t *testing.T) {
	serial := renderAll(t, Config{Scale: 0.02, Parallel: 1}, []string{"failover"})
	parallel := renderAll(t, Config{Scale: 0.02, Parallel: 4}, []string{"failover"})
	if serial != parallel {
		t.Fatalf("parallel failover sweep diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestParallelDataServiceDeterminism asserts the data service sweep
// points (each fleet x job-ramp rung its own cluster and kernel, plus the
// per-fleet no-service baselines) are byte-identical run concurrently vs
// serially.
func TestParallelDataServiceDeterminism(t *testing.T) {
	serial := renderAll(t, Config{Scale: 0.02, Parallel: 1}, []string{"dataservice"})
	parallel := renderAll(t, Config{Scale: 0.02, Parallel: 4}, []string{"dataservice"})
	if serial != parallel {
		t.Fatalf("parallel data service sweep diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunAllUnknownArtifact verifies RunAll fails fast on an unknown id
// before launching anything.
func TestRunAllUnknownArtifact(t *testing.T) {
	_, err := RunAll(Config{Scale: 0.02}, []string{"fig3", "nope"})
	if err == nil {
		t.Fatal("RunAll accepted an unknown artifact id")
	}
	if _, ok := err.(*UnknownArtifactError); !ok {
		t.Fatalf("error type = %T, want *UnknownArtifactError", err)
	}
}

// TestSchedulerFastPathEquivalence is the referee for the scheduler fast
// paths: the same artifact run with the inline time-warp/yield fast paths
// force-disabled must render byte-identically — same virtual timestamps,
// same Darshan counters, same figures.
func TestSchedulerFastPathEquivalence(t *testing.T) {
	setupFast, err := imageNet.setup(Config{Scale: 0.02}, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runCaseStudy("fig7a", "fast", setupFast)
	if err != nil {
		t.Fatal(err)
	}
	setupSlow, err := imageNet.setup(Config{Scale: 0.02}, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	setupSlow.machine.K.ForceSlowPath = true
	slow, err := runCaseStudy("fig7a", "fast", setupSlow)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Render() != slow.Render() {
		t.Error("rendered output diverged between fast-path and slow-path schedules")
	}
	if RenderMetrics(fast.Metrics()) != RenderMetrics(slow.Metrics()) {
		t.Errorf("metrics diverged:\nfast: %vslow: %v", RenderMetrics(fast.Metrics()), RenderMetrics(slow.Metrics()))
	}
	if fast.WallSec != slow.WallSec {
		t.Errorf("virtual wall time diverged: fast %v, slow %v", fast.WallSec, slow.WallSec)
	}
}
