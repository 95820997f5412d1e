package core

import "repro/internal/darshan"

// This file extends the paper's §V-B staging advisor to the distributed
// scenario the ROADMAP asks for: one StagingAdvice per rank over the
// per-rank Darshan snapshots of a cluster run, each staging that rank's
// small-file shard to its node-local fast tier. This is the Clairvoyant
// Prefetching (NoPFS) reasoning — per-rank access knowledge places each
// rank's data on storage only that rank touches — reproduced end to end
// from the profiles the simulated cluster actually collected.
//
// This advisor is the OFFLINE baseline: it plans a one-shot between-runs
// migration from a finished profile, the layout the tune experiment
// applies before its tuned epoch. Its online counterpart is
// internal/prefetch, which walks the same clairvoyant access order during
// the run, streaming files through a bounded node cache with eviction and
// peer serving; the prefetch experiment compares the two across cache
// capacities. On capacity-constrained tiers the static plan can only
// stage what fits, which is where the online prefetcher overtakes it.

// StagingObjective selects the threshold-scan scoring of the cluster
// advisor.
type StagingObjective int

const (
	// StagingBytesScarce is the single-process objective of AdviseStaging:
	// fast-tier bytes are precious (Greendog's one small Optane), so byte
	// consumption is penalized at byteCostWeight. With this objective a
	// one-rank cluster gets exactly the AdviseStaging answer.
	StagingBytesScarce StagingObjective = iota
	// StagingMetadataBound drops the byte penalty: on a shared parallel
	// file system every staged file saves an MDS round trip, and the
	// node-local tier's capacity — the scan's hard feasibility bound — is
	// the only cost. The advisor stages the most files that fit, which for
	// a small-file corpus is the rank's whole shard.
	StagingMetadataBound
)

// byteWeight maps the objective to the threshold-scan byte penalty.
func (o StagingObjective) byteWeight() float64 {
	if o == StagingMetadataBound {
		return 0
	}
	return byteCostWeight
}

// ClusterStagingOptions configures AdviseClusterStaging.
type ClusterStagingOptions struct {
	// PerNodeCapacity is each rank's node-local fast-tier capacity in
	// bytes (the feasibility bound of the per-rank threshold scan).
	PerNodeCapacity int64
	// Objective selects the scoring; the zero value reproduces the
	// single-process AdviseStaging objective.
	Objective StagingObjective
	// SizeOf resolves file sizes (usually the cluster VFS lookup); files
	// it cannot resolve are never staged, like in Analyze.
	SizeOf SizeOfFunc
}

// AdviseClusterStaging derives one SessionStats per rank from the
// per-rank job-end logs (darshan.Log → Analyze against an empty
// baseline) and emits one StagingAdvice per rank, in rank order. Files
// touched by more than one rank — the shared (rank −1) records of the
// merged log, e.g. a manifest every rank re-reads — are excluded from
// every rank's advice: a rank stages only the shard it owns exclusively,
// so the per-rank plans are disjoint by construction.
func AdviseClusterStaging(perRank []*darshan.Log, opts ClusterStagingOptions) []*StagingAdvice {
	shared := darshan.SharedRecordIDs(perRank)
	out := make([]*StagingAdvice, len(perRank))
	for r, snap := range perRank {
		if snap == nil {
			out[r] = &StagingAdvice{}
			continue
		}
		stats := AnalyzeSnapshot(snap, opts.SizeOf)
		if len(shared) > 0 {
			kept := stats.PerFile[:0]
			for _, f := range stats.PerFile {
				if !shared[f.RecordID] {
					kept = append(kept, f)
				}
			}
			stats.PerFile = kept
		}
		out[r] = adviseStagingWeighted(stats, opts.PerNodeCapacity, opts.Objective.byteWeight())
	}
	return out
}
