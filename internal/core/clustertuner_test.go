package core

import (
	"errors"
	"fmt"
	"testing"
)

// tableProbe serves ClusterObservations from per-thread-count tables
// (bandwidth in MB/s, merged meta time in seconds), like a deterministic
// simulated cluster would.
func tableProbe(bw, meta map[int]float64) ClusterProbeFunc {
	return func(threads, prefetch int) (ClusterObservation, error) {
		b, ok := bw[threads]
		if !ok {
			return ClusterObservation{}, fmt.Errorf("no table entry for %d threads", threads)
		}
		return ClusterObservation{
			AggBandwidthMBps: b,
			MetaTimeSeconds:  meta[threads],
			EpochSeconds:     1,
		}, nil
	}
}

// The measured ranks=4 shared-Lustre shape: aggregate bandwidth plateaus
// past 4 threads/rank while merged POSIX_F_META_TIME keeps doubling —
// 16 aggregate threads queueing on a 7-way MDS.
var (
	lustreBW4   = map[int]float64{1: 12.8, 2: 22.7, 4: 26.06, 8: 26.07, 16: 25.98, 28: 25.9}
	lustreMeta4 = map[int]float64{1: 166, 2: 181, 4: 355, 8: 736, 16: 1497, 28: 2600}
)

func TestClusterTunerBacksOffAtMDSKnee(t *testing.T) {
	ct := NewClusterTuner(4, 1, 28)
	adv, err := ct.Tune(1, tableProbe(lustreBW4, lustreMeta4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.KneeDetected {
		t.Fatalf("MDS knee not detected (history %+v)", adv.History)
	}
	// Bandwidth-greedy tuning lands on the plateau's peak (8); the knee
	// backoff retreats to the cheapest plateau member (4): half the
	// aggregate metadata time for 0.04% bandwidth.
	if adv.BandwidthThreads != 8 {
		t.Fatalf("bandwidth-greedy choice = %d, want 8", adv.BandwidthThreads)
	}
	if got := adv.Threads; got != 4 {
		t.Fatalf("knee backoff chose %d threads/rank, want 4", got)
	}
}

func TestClusterTunerNoKneeWithoutMetaGrowth(t *testing.T) {
	// The staged (node-local) shape: same bandwidth plateau, but metadata
	// time stays flat — no MDS to saturate, so no backoff fires and the
	// bandwidth-greedy choice stands.
	meta := map[int]float64{1: 0.1, 2: 0.1, 4: 0.1, 8: 0.1, 16: 0.1, 28: 0.1}
	ct := NewClusterTuner(4, 1, 28)
	adv, err := ct.Tune(1, tableProbe(lustreBW4, meta), 8)
	if err != nil {
		t.Fatal(err)
	}
	if adv.KneeDetected {
		t.Fatal("knee detected with flat metadata time")
	}
	if got := adv.Threads; got != adv.BandwidthThreads {
		t.Fatalf("threads %d differ from bandwidth-greedy %d without a knee", got, adv.BandwidthThreads)
	}
}

func TestClusterTunerRanks1DegeneratesToAutotune(t *testing.T) {
	// A one-rank cluster must pick exactly what the single-process
	// AutoTuner picks from the same bandwidth curve (no knee backoff).
	curves := []map[int]float64{
		{1: 3, 2: 6, 4: 12, 8: 24, 16: 25, 28: 25},
		{1: 94, 2: 85, 4: 80, 8: 78, 16: 77, 28: 76},
	}
	for i, bw := range curves {
		at := NewAutoTuner(1, 1, 28)
		want, err := at.Tune(func(threads int) (float64, error) { return bw[threads], nil }, 8)
		if err != nil {
			t.Fatal(err)
		}
		ct := NewClusterTuner(1, 1, 28)
		adv, err := ct.Tune(1, tableProbe(bw, map[int]float64{}), 8)
		if err != nil {
			t.Fatal(err)
		}
		if adv.KneeDetected {
			t.Fatalf("curve %d: knee backoff ran on a one-rank cluster", i)
		}
		if got := adv.Threads; got != want {
			t.Fatalf("curve %d: cluster chose %d threads, Autotune chose %d", i, got, want)
		}
	}
}

func TestClusterTunerPrefetchBacksOffOnTies(t *testing.T) {
	// Prefetch depth buys nothing on this workload (the probes tie), so
	// the smallest ladder depth wins — a deeper buffer is just memory.
	ct := NewClusterTuner(4, 1, 28)
	adv, err := ct.Tune(1, tableProbe(lustreBW4, lustreMeta4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := adv.Prefetch; got != 2 {
		t.Fatalf("prefetch = %d, want 2 (smallest within tolerance)", got)
	}
}

func TestClusterTunerProbeErrorPropagates(t *testing.T) {
	boom := errors.New("probe failed")
	ct := NewClusterTuner(4, 1, 28)
	_, err := ct.Tune(1, func(threads, prefetch int) (ClusterObservation, error) {
		return ClusterObservation{}, boom
	}, 8)
	if !errors.Is(err, boom) {
		t.Fatalf("probe error not propagated: %v", err)
	}
}
