package core

import (
	"fmt"
	"sort"
)

// This file is the cluster half of the §VII auto-tuning opportunity: the
// single-process AutoTuner maximizes one rank's bandwidth in isolation,
// which on a shared parallel file system is exactly wrong — N ranks each
// greedily adding pipeline threads just queue more metadata RPCs on the
// one MDS. The ClusterTuner drives the same multiplicative hill-climb on
// the *aggregate* bandwidth of short distributed probe windows, then uses
// the merged cross-rank profile (POSIX_F_META_TIME) to detect the MDS
// saturation knee and back per-rank threads off to the cheapest setting
// that still delivers the plateau bandwidth.

// ClusterObservation is one probed cluster configuration: a short
// distributed run window at a uniform per-rank thread count, summarized
// from the merged cross-rank Darshan profile.
type ClusterObservation struct {
	// Threads is the per-rank num_parallel_calls probed.
	Threads int
	// Prefetch is the per-rank prefetch depth probed.
	Prefetch int
	// EpochSeconds is the probe window's virtual duration.
	EpochSeconds float64
	// AggBandwidthMBps is the aggregate POSIX read bandwidth across ranks
	// (merged bytes / window), the quantity the hill-climb maximizes.
	AggBandwidthMBps float64
	// MetaTimeSeconds is the merged POSIX_F_META_TIME across ranks: total
	// time all ranks spent in metadata. Past the MDS saturation knee it
	// keeps growing with aggregate concurrency (ranks × threads) while
	// bandwidth stays flat — queueing, not service.
	MetaTimeSeconds float64
}

// ClusterProbeFunc runs one short distributed probe window with every
// rank at the given thread count and prefetch depth.
type ClusterProbeFunc func(threads, prefetch int) (ClusterObservation, error)

// ClusterAdvice is the tuner's decision: one thread count and prefetch
// depth that every rank runs with.
type ClusterAdvice struct {
	Ranks int
	// Threads and Prefetch are the per-rank choices, applied to every rank
	// as distributed.Options Threads and Prefetch.
	Threads  int
	Prefetch int
	// BandwidthThreads is the hill-climb's bandwidth-greedy choice before
	// the knee backoff — what per-rank-in-isolation tuning would pick.
	BandwidthThreads int
	// KneeDetected reports whether the merged profile showed the MDS
	// saturation knee (flat bandwidth, growing metadata time).
	KneeDetected bool
	// History records every probe in execution order.
	History []ClusterObservation
}

// ClusterTuner picks per-rank input-pipeline parameters from merged
// cross-rank profiles.
type ClusterTuner struct {
	// Ranks is the cluster size the probes run at.
	Ranks int
	// Min and Max bound the per-rank thread counts.
	Min, Max int

	// History records every probe in execution order.
	History []ClusterObservation
}

// The tuner's fixed policy. The relative bandwidth band treated as flat is
// the embedded hill-climb's tolerance.
const (
	// metaKneeGrowth is the merged-meta-time growth factor between two
	// probed thread counts that, together with flat bandwidth, confirms
	// the MDS knee.
	metaKneeGrowth = 1.3
	// basePrefetch is the prefetch depth the thread probes run at.
	basePrefetch = 10
)

// NewClusterTuner returns a tuner for a ranks-node cluster with per-rank
// thread counts bounded by [min, max].
func NewClusterTuner(ranks, min, max int) *ClusterTuner {
	if ranks < 1 {
		ranks = 1
	}
	return &ClusterTuner{Ranks: ranks, Min: min, Max: max}
}

// Tune probes short cluster windows and returns the per-rank advice. The
// thread walk is the AutoTuner hill-climb on aggregate bandwidth — a
// one-rank cluster therefore picks exactly what the single-process
// Autotune would — followed, on real clusters, by the knee backoff; then
// the prefetch ladder runs at the chosen thread count. maxProbes bounds
// the hill-climb probes (the prefetch ladder adds at most two more).
func (ct *ClusterTuner) Tune(start int, probe ClusterProbeFunc, maxProbes int) (*ClusterAdvice, error) {
	ct.History = nil // a fresh walk: stale observations from another layout must not feed the knee
	at := NewAutoTuner(start, ct.Min, ct.Max)
	chosen, err := at.Tune(func(threads int) (float64, error) {
		obs, err := ct.probeAt(probe, threads, basePrefetch)
		if err != nil {
			return 0, err
		}
		return obs.AggBandwidthMBps, nil
	}, maxProbes)
	if err != nil {
		return nil, fmt.Errorf("core: cluster tune: %w", err)
	}
	adv := &ClusterAdvice{Ranks: ct.Ranks, BandwidthThreads: chosen}
	threads := chosen
	if ct.Ranks > 1 {
		if t, knee := ct.kneeBackoff(chosen); knee {
			adv.KneeDetected = true
			threads = t
		}
	}
	prefetch, err := ct.pickPrefetch(probe, threads)
	if err != nil {
		return nil, fmt.Errorf("core: cluster tune: %w", err)
	}
	adv.Threads, adv.Prefetch = threads, prefetch
	adv.History = ct.History
	return adv, nil
}

// probeAt returns the recorded observation for a configuration, probing
// (and recording) it only once: the hill-climb's reversal revisits thread
// counts, and a probe is a whole fresh cluster simulation worth reusing.
func (ct *ClusterTuner) probeAt(probe ClusterProbeFunc, threads, prefetch int) (ClusterObservation, error) {
	for _, o := range ct.History {
		if o.Threads == threads && o.Prefetch == prefetch {
			return o, nil
		}
	}
	obs, err := probe(threads, prefetch)
	if err != nil {
		return ClusterObservation{}, err
	}
	obs.Threads, obs.Prefetch = threads, prefetch
	ct.History = append(ct.History, obs)
	return obs, nil
}

// threadLadder returns the base-prefetch probe history in ascending
// thread order (probeAt keeps it free of duplicates).
func (ct *ClusterTuner) threadLadder() []ClusterObservation {
	var out []ClusterObservation
	for _, o := range ct.History {
		if o.Prefetch == basePrefetch {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Threads < out[j].Threads })
	return out
}

// kneeBackoff detects the shared-MDS saturation knee in the probe ladder
// and, when present, returns the smallest probed thread count whose
// aggregate bandwidth stays within tolerance of the best. The knee:
// between two probed thread counts, aggregate bandwidth stops scaling
// (gain below tolerance) while the merged metadata time keeps growing
// (by at least metaKneeGrowth) — the added aggregate concurrency is
// queueing on the metadata server, not being serviced, so the extra
// per-rank threads are pure waste.
func (ct *ClusterTuner) kneeBackoff(chosen int) (int, bool) {
	ladder := ct.threadLadder()
	knee := false
	for i := 0; i+1 < len(ladder); i++ {
		a, b := ladder[i], ladder[i+1]
		if a.AggBandwidthMBps <= 0 {
			continue
		}
		gain := (b.AggBandwidthMBps - a.AggBandwidthMBps) / a.AggBandwidthMBps
		if gain < tolerance && b.MetaTimeSeconds >= a.MetaTimeSeconds*metaKneeGrowth {
			knee = true
			break
		}
	}
	if !knee {
		return chosen, false
	}
	best := 0.0
	for _, o := range ladder {
		if o.AggBandwidthMBps > best {
			best = o.AggBandwidthMBps
		}
	}
	for _, o := range ladder {
		if o.AggBandwidthMBps >= best*(1-tolerance) {
			return o.Threads, true
		}
	}
	return chosen, true
}

// pickPrefetch probes the prefetch ladder at the chosen thread count and
// returns the smallest depth within tolerance of the ladder's best
// bandwidth (a deeper buffer that buys nothing is just memory). Depths
// already probed (the basePrefetch thread probes) are reused through
// probeAt's memoization, not re-run.
func (ct *ClusterTuner) pickPrefetch(probe ClusterProbeFunc, threads int) (int, error) {
	candidates := [...]int{2, basePrefetch}
	results := make([]ClusterObservation, 0, len(candidates))
	for _, depth := range candidates {
		obs, err := ct.probeAt(probe, threads, depth)
		if err != nil {
			return 0, err
		}
		results = append(results, obs)
	}
	best := 0.0
	for _, o := range results {
		if o.AggBandwidthMBps > best {
			best = o.AggBandwidthMBps
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Prefetch < results[j].Prefetch })
	for _, o := range results {
		if o.AggBandwidthMBps >= best*(1-tolerance) {
			return o.Prefetch, nil
		}
	}
	return basePrefetch, nil
}
