package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/prefetch"
)

// This file is the clairvoyant prefetching experiment: the online
// counterpart of the tune experiment's offline staging plans. Per rank
// count it runs the same two-epoch, per-epoch-reshuffled training job four
// ways — cold on shared Lustre, with the offline per-rank staging plan
// (core.AdviseClusterStaging, the PR 5 baseline) applied between runs, and
// with the per-node prefetch daemons (internal/prefetch) filling a bounded
// node NVMe cache ahead of the consumer, without and with peer-cache
// serving — across a ladder of cache capacities expressed as fractions of
// the largest per-rank epoch shard. On the capacity-constrained rungs the
// static plan cannot fit the shard and falls back to cold per-file MDS
// lookups for the remainder, while the prefetcher streams the whole shard
// through the bounded cache with statahead-batched metadata; the
// experiment verifies prefetching beats the static plan there, and beats
// the cold baseline on every rung, rather than just reporting the numbers.

// prefetchEpochs is the job length: two epochs, so per-epoch
// reshuffling moves shard membership between ranks (what peer-cache
// serving exploits) and retention across the epoch boundary matters.
const prefetchEpochs = 2

// prefetchCapacityLadder is the cache-size ladder in fractions of the
// largest per-rank epoch shard: two capacity-constrained rungs and one
// where the whole shard fits.
var prefetchCapacityLadder = []float64{0.25, 0.5, 1.5}

// PrefetchRung is one cache capacity of a rank count's ladder.
type PrefetchRung struct {
	// Frac is the capacity as a fraction of the largest per-rank epoch
	// shard; CacheBytes is the resolved per-node capacity.
	Frac       float64
	CacheBytes int64
	// Constrained reports CacheBytes < the shard working set — the rungs
	// the offline plan cannot fully stage.
	Constrained bool
	// StagedEpochSec is the epoch time with the offline staging plan
	// (capped at this rung's capacity) applied between runs; StagedFiles/
	// StagedBytes aggregate the per-rank plans.
	StagedEpochSec float64
	StagedFiles    int
	StagedBytes    int64
	// NoPeerEpochSec/PeerEpochSec are the prefetched epoch times without
	// and with peer-cache serving.
	NoPeerEpochSec float64
	PeerEpochSec   float64
	// LocalRate/PeerRate/PFSRate break the peer-serving run's data reads
	// down by where they were served, summed across nodes.
	LocalRate float64
	PeerRate  float64
	PFSRate   float64
	// Evictions/Fetched/SkippedPeer aggregate the peer-serving run's
	// cache and daemon counters across nodes.
	Evictions   int64
	Fetched     int64
	SkippedPeer int64
}

// SpeedupVsStagingX returns staged/prefetched epoch time at this rung.
func (r *PrefetchRung) SpeedupVsStagingX() float64 {
	if r.PeerEpochSec == 0 {
		return 0
	}
	return r.StagedEpochSec / r.PeerEpochSec
}

// PrefetchRow is one rank count of the prefetch experiment.
type PrefetchRow struct {
	Ranks int
	// ShardBytes is the largest per-rank epoch shard (the working set the
	// ladder fractions scale).
	ShardBytes int64
	// ColdEpochSec is the shared-Lustre baseline epoch time with no cache
	// tier at all.
	ColdEpochSec float64
	Rungs        []PrefetchRung
}

// PrefetchResult is the clairvoyant prefetching experiment.
type PrefetchResult struct {
	Rows []PrefetchRow
}

// ID implements Result.
func (r *PrefetchResult) ID() string { return "prefetch" }

// Render implements Result.
func (r *PrefetchResult) Render() string {
	var b strings.Builder
	b.WriteString("Clairvoyant per-epoch prefetching over node NVMe caches vs cold Lustre and offline staging\n")
	fmt.Fprintf(&b, "  %5s %8s %9s %8s %9s %9s %8s %7s %6s %6s %8s\n",
		"ranks", "cap", "cache MB", "cold(s)", "staged(s)", "nopeer(s)", "peer(s)", "local%", "peer%", "pfs%", "evict")
	for _, row := range r.Rows {
		for _, g := range row.Rungs {
			fmt.Fprintf(&b, "  %5d %7.0f%% %9.1f %8.2f %9.2f %9.2f %8.2f %6.1f%% %5.1f%% %5.1f%% %8d\n",
				row.Ranks, g.Frac*100, float64(g.CacheBytes)/1e6,
				row.ColdEpochSec, g.StagedEpochSec, g.NoPeerEpochSec, g.PeerEpochSec,
				g.LocalRate*100, g.PeerRate*100, g.PFSRate*100, g.Evictions)
		}
	}
	return b.String()
}

// Metrics implements Result.
func (r *PrefetchResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		rp := fmt.Sprintf("ranks%d_", row.Ranks)
		out[rp+"cold_epoch_s"] = row.ColdEpochSec
		for _, g := range row.Rungs {
			p := fmt.Sprintf("%scap%03d_", rp, int(g.Frac*100))
			out[p+"staged_epoch_s"] = g.StagedEpochSec
			out[p+"nopeer_epoch_s"] = g.NoPeerEpochSec
			out[p+"peer_epoch_s"] = g.PeerEpochSec
			out[p+"local_hit_rate"] = g.LocalRate
			out[p+"peer_hit_rate"] = g.PeerRate
			out[p+"pfs_rate"] = g.PFSRate
			out[p+"evictions"] = float64(g.Evictions)
			out[p+"speedup_vs_staging_x"] = g.SpeedupVsStagingX()
			if g.PeerEpochSec > 0 {
				out[p+"speedup_vs_cold_x"] = row.ColdEpochSec / g.PeerEpochSec
			}
		}
	}
	// Headline metrics for the benchmark snapshots: the most
	// capacity-constrained rung at the largest rank count.
	last := r.Rows[len(r.Rows)-1]
	if len(last.Rungs) > 0 {
		g := last.Rungs[0]
		out["prefetch_speedup_vs_staging_x"] = g.SpeedupVsStagingX()
		out["prefetch_local_hit_rate"] = g.LocalRate
		if g.PeerEpochSec > 0 {
			out["prefetch_speedup_vs_cold_x"] = last.ColdEpochSec / g.PeerEpochSec
		}
	}
	return out
}

// prefetchDepth/prefetchFetchers shape the per-node daemons: a window of
// two batches so hits survive the consumer's batch bursts, fetched by as
// many workers as the consumer has reader threads (the workers skip the
// map/step compute, which is exactly the headroom that lets them lead).
const (
	prefetchDepth    = 64
	prefetchFetchers = 4
)

// capStagingAdvice truncates a rank's staging plan to a rung's capacity,
// smallest files first — the most files that fit, i.e. the metadata-bound
// objective under the tighter quota. The advisor itself only scans size
// thresholds, so under a quota below its smallest threshold bucket it
// would stage nothing; the truncation gives the offline baseline its best
// feasible plan at every rung.
func capStagingAdvice(adv *core.StagingAdvice, capacity int64, sizeOf func(string) (int64, bool)) *core.StagingAdvice {
	if adv == nil || adv.Bytes <= capacity {
		return adv
	}
	files := append([]string(nil), adv.Files...)
	sort.SliceStable(files, func(i, j int) bool {
		si, _ := sizeOf(files[i])
		sj, _ := sizeOf(files[j])
		if si != sj {
			return si < sj
		}
		return files[i] < files[j]
	})
	capped := &core.StagingAdvice{
		Threshold:  adv.Threshold,
		TotalFiles: adv.TotalFiles,
		TotalBytes: adv.TotalBytes,
	}
	for _, p := range files {
		sz, ok := sizeOf(p)
		if !ok {
			continue
		}
		if capped.Bytes+sz > capacity {
			break
		}
		capped.Files = append(capped.Files, p)
		capped.FileCount++
		capped.Bytes += sz
	}
	sort.Strings(capped.Files)
	return capped
}

// runPrefetchPoint executes one rank count: the cold profile pass (staging
// plans come from disjoint single-epoch shards, so the merged-log
// shared-record exclusion does not gut them), the cold baseline, and per
// ladder rung the staged baseline plus both prefetched runs.
func runPrefetchPoint(c Config, ranks int) (PrefetchRow, error) {
	// Profile pass: one cold epoch under plain sharding. Its per-rank
	// snapshots feed the staging advisor, its cluster resolves file sizes.
	profCluster, d, err := buildImageNetCluster(c, ranks)
	if err != nil {
		return PrefetchRow{}, err
	}
	prof, err := distributed.Run(profCluster, d.Paths, untunedClusterOptions(c))
	if err != nil {
		return PrefetchRow{}, err
	}
	snaps := make([]*darshan.Snapshot, ranks)
	for r := range prof.PerRank {
		snaps[r] = prof.PerRank[r].Snapshot
	}
	sizeOf := func(p string) (int64, bool) {
		ino, ok := profCluster.FS.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}

	// The working set the ladder scales: the largest per-rank epoch shard.
	var shardBytes int64
	for _, shard := range distributed.Shards(d.Paths, c.shuffleSeed(), ranks) {
		var b int64
		for _, p := range shard {
			if sz, ok := sizeOf(p); ok {
				b += sz
			}
		}
		shardBytes = max(shardBytes, b)
	}
	if shardBytes == 0 {
		return PrefetchRow{}, fmt.Errorf("prefetch: ranks=%d: empty shard working set", ranks)
	}

	// The advisor's natural plan at the node tier's full capacity; each
	// rung truncates it to its quota.
	fullAdvices := core.AdviseClusterStaging(snaps, core.ClusterStagingOptions{
		PerNodeCapacity: profCluster.Nodes[0].Optane.Capacity(),
		Objective:       core.StagingMetadataBound,
		SizeOf:          sizeOf,
	})

	epochOpts := untunedClusterOptions(c)
	epochOpts.Epochs = prefetchEpochs

	// Cold baseline: the same two reshuffled epochs with no cache tier.
	coldCluster, coldData, err := buildImageNetCluster(c, ranks)
	if err != nil {
		return PrefetchRow{}, err
	}
	cold, err := distributed.Run(coldCluster, coldData.Paths, epochOpts)
	if err != nil {
		return PrefetchRow{}, err
	}
	coldBytes := cold.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	row := PrefetchRow{
		Ranks:        ranks,
		ShardBytes:   shardBytes,
		ColdEpochSec: cold.WallSeconds / prefetchEpochs,
	}

	sameBytes := func(res *distributed.Result, variant string) error {
		if got := res.Merged.TotalPosix(darshan.POSIX_BYTES_READ); got != coldBytes {
			return fmt.Errorf("prefetch: ranks=%d: %s run read %d bytes, cold %d — not the same epochs",
				ranks, variant, got, coldBytes)
		}
		return nil
	}

	for _, frac := range prefetchCapacityLadder {
		capBytes := int64(frac * float64(shardBytes))
		rung := PrefetchRung{
			Frac:        frac,
			CacheBytes:  capBytes,
			Constrained: capBytes < shardBytes,
		}

		// Offline baseline: the PR 5 staging plan, truncated to this
		// rung's quota, applied between runs.
		advices := make([]*core.StagingAdvice, len(fullAdvices))
		for r, adv := range fullAdvices {
			advices[r] = capStagingAdvice(adv, capBytes, sizeOf)
		}
		for _, adv := range advices {
			if adv == nil {
				continue
			}
			rung.StagedFiles += adv.FileCount
			rung.StagedBytes += adv.Bytes
		}
		stagedCluster, stagedData, err := buildImageNetCluster(c, ranks)
		if err != nil {
			return PrefetchRow{}, err
		}
		if err := applyClusterStaging(stagedCluster, advices); err != nil {
			return PrefetchRow{}, fmt.Errorf("prefetch: ranks=%d: %w", ranks, err)
		}
		staged, err := distributed.Run(stagedCluster, stagedData.Paths, epochOpts)
		if err != nil {
			return PrefetchRow{}, err
		}
		if err := sameBytes(staged, "staged"); err != nil {
			return PrefetchRow{}, err
		}
		rung.StagedEpochSec = staged.WallSeconds / prefetchEpochs

		// Prefetched runs: one daemon per node over the same run plan.
		runPrefetched := func(peer bool) (*distributed.Result, []prefetch.NodeReport, error) {
			cluster, data, err := buildImageNetCluster(c, ranks)
			if err != nil {
				return nil, nil, err
			}
			return prefetch.RunCluster(cluster, data.Paths, untunedClusterOptions(c), prefetch.Config{
				Depth:       prefetchDepth,
				Fetchers:    prefetchFetchers,
				CacheBytes:  capBytes,
				PeerServing: peer,
			}, prefetchEpochs)
		}
		noPeer, _, err := runPrefetched(false)
		if err != nil {
			return PrefetchRow{}, err
		}
		if err := sameBytes(noPeer, "prefetch"); err != nil {
			return PrefetchRow{}, err
		}
		rung.NoPeerEpochSec = noPeer.WallSeconds / prefetchEpochs
		withPeer, reports, err := runPrefetched(true)
		if err != nil {
			return PrefetchRow{}, err
		}
		if err := sameBytes(withPeer, "peer-prefetch"); err != nil {
			return PrefetchRow{}, err
		}
		rung.PeerEpochSec = withPeer.WallSeconds / prefetchEpochs

		var local, peerHits, pfs int64
		for _, rep := range reports {
			local += rep.Cache.LocalHits
			peerHits += rep.Cache.PeerHits
			pfs += rep.Cache.PFSReads
			rung.Evictions += rep.Cache.Evictions
			rung.Fetched += rep.Prefetch.Fetched
			rung.SkippedPeer += rep.Prefetch.SkippedPeer
		}
		if total := local + peerHits + pfs; total > 0 {
			rung.LocalRate = float64(local) / float64(total)
			rung.PeerRate = float64(peerHits) / float64(total)
			rung.PFSRate = float64(pfs) / float64(total)
		}

		// The acceptance invariants, verified rather than just reported.
		if rung.PeerEpochSec >= row.ColdEpochSec {
			return PrefetchRow{}, fmt.Errorf(
				"prefetch: ranks=%d cap %.0f%%: prefetched epoch %.2fs did not beat cold Lustre %.2fs",
				ranks, frac*100, rung.PeerEpochSec, row.ColdEpochSec)
		}
		if rung.Constrained && rung.PeerEpochSec >= rung.StagedEpochSec {
			return PrefetchRow{}, fmt.Errorf(
				"prefetch: ranks=%d cap %.0f%%: prefetched epoch %.2fs did not beat the static plan %.2fs on a constrained rung",
				ranks, frac*100, rung.PeerEpochSec, rung.StagedEpochSec)
		}
		row.Rungs = append(row.Rungs, rung)
	}
	return row, nil
}

// PrefetchExperiment sweeps the rank ladder and, per rank count, the cache
// capacity ladder. Sweep points build independent clusters, so they run
// concurrently under Config.Parallel with rows assembled in ladder order
// (byte-identical to a serial run).
func PrefetchExperiment(c Config) (*PrefetchResult, error) {
	sweep := c.rankSweep()
	rows := make([]PrefetchRow, len(sweep))
	err := runIndexed(c.Parallel, len(sweep), func(i int) error {
		var err error
		rows[i], err = runPrefetchPoint(c, sweep[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return &PrefetchResult{Rows: rows}, nil
}
