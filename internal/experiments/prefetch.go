package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
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

// PrefetchRow is one cache capacity of one rank count's ladder.
type PrefetchRow struct {
	Ranks int
	// Frac is the capacity as a fraction of the largest per-rank epoch
	// shard; CacheBytes is the resolved per-node capacity.
	Frac       float64
	CacheBytes int64
	// ColdEpochSec is the rank count's shared-Lustre baseline epoch time
	// with no cache tier at all.
	ColdEpochSec float64
	// StagedEpochSec is the epoch time with the offline staging plan
	// (capped at this rung's capacity) applied between runs.
	StagedEpochSec float64
	// NoPeerEpochSec/PeerEpochSec are the prefetched epoch times without
	// and with peer-cache serving.
	NoPeerEpochSec float64
	PeerEpochSec   float64
	// LocalRate/PeerRate/PFSRate break the peer-serving run's data reads
	// down by where they were served, summed across nodes.
	LocalRate float64
	PeerRate  float64
	PFSRate   float64
	// Evictions is the peer-serving run's cache evictions across nodes.
	Evictions int64
}

// PrefetchResult is the clairvoyant prefetching experiment.
type PrefetchResult = table[PrefetchRow]

var prefetchTable = &tableSpec[PrefetchRow]{
	title: "Clairvoyant per-epoch prefetching over node NVMe caches vs cold Lustre and offline staging",
	cols: []column[PrefetchRow]{
		{head: "ranks", width: 5, verb: "%5d", cell: func(r PrefetchRow) any { return r.Ranks }},
		{head: "cap", width: 8, verb: "%7.0f%%", cell: func(r PrefetchRow) any { return r.Frac * 100 }},
		{head: "cache MB", width: 9, verb: "%9.1f", cell: func(r PrefetchRow) any { return float64(r.CacheBytes) / 1e6 }},
		{head: "cold(s)", width: 8, verb: "%8.2f", cell: func(r PrefetchRow) any { return r.ColdEpochSec }},
		{head: "staged(s)", width: 9, verb: "%9.2f", cell: func(r PrefetchRow) any { return r.StagedEpochSec }, metric: "staged_epoch_s"},
		{head: "nopeer(s)", width: 9, verb: "%9.2f", cell: func(r PrefetchRow) any { return r.NoPeerEpochSec }, metric: "nopeer_epoch_s"},
		{head: "peer(s)", width: 8, verb: "%8.2f", cell: func(r PrefetchRow) any { return r.PeerEpochSec }, metric: "peer_epoch_s"},
		{head: "local%", width: 7, verb: "%6.1f%%", cell: func(r PrefetchRow) any { return r.LocalRate * 100 },
			metric: "local_hit_rate", value: func(r PrefetchRow) float64 { return r.LocalRate }},
		{head: "peer%", width: 6, verb: "%5.1f%%", cell: func(r PrefetchRow) any { return r.PeerRate * 100 },
			metric: "peer_hit_rate", value: func(r PrefetchRow) float64 { return r.PeerRate }},
		{head: "pfs%", width: 6, verb: "%5.1f%%", cell: func(r PrefetchRow) any { return r.PFSRate * 100 },
			metric: "pfs_rate", value: func(r PrefetchRow) float64 { return r.PFSRate }},
		{head: "evict", width: 8, verb: "%8d", cell: func(r PrefetchRow) any { return r.Evictions }, metric: "evictions"},
		{metric: "speedup_vs_staging_x", value: func(r PrefetchRow) float64 { return ratio(r.StagedEpochSec, r.PeerEpochSec) }},
		{metric: "speedup_vs_cold_x", value: func(r PrefetchRow) float64 { return ratio(r.ColdEpochSec, r.PeerEpochSec) }},
	},
	key: prefetchKey,
	extra: func(rows []PrefetchRow, out map[string]float64) {
		for _, r := range rows {
			out[ranksKey(r.Ranks)+"cold_epoch_s"] = r.ColdEpochSec
		}
		// Headline metrics: the most
		// capacity-constrained rung at the largest rank count.
		p := prefetchKey(rows[len(rows)-len(prefetchCapacityLadder)])
		out["prefetch_speedup_vs_staging_x"] = out[p+"speedup_vs_staging_x"]
		out["prefetch_speedup_vs_cold_x"] = out[p+"speedup_vs_cold_x"]
		out["prefetch_local_hit_rate"] = out[p+"local_hit_rate"]
	},
}

// prefetchKey is a rung's metric-key prefix.
func prefetchKey(r PrefetchRow) string {
	return fmt.Sprintf("%scap%03d_", ranksKey(r.Ranks), int(r.Frac*100))
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
	if adv.Bytes <= capacity {
		return adv
	}
	size := func(p string) int64 {
		sz, _ := sizeOf(p)
		return sz
	}
	files := slices.Clone(adv.Files)
	slices.SortFunc(files, func(a, b string) int { return cmp.Or(cmp.Compare(size(a), size(b)), strings.Compare(a, b)) })
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
	slices.Sort(capped.Files)
	return capped
}

// prefetchPoint executes one rank count: the cold profile pass (staging
// plans come from disjoint single-epoch shards, so the merged-log
// shared-record exclusion does not gut them), the cold baseline, and per
// ladder rung the staged baseline plus both prefetched runs.
func (c Config) prefetchPoint(ranks int) (rows []PrefetchRow, err error) {
	defer wrapErr(&err, "prefetch: ranks=%d", ranks)
	// Profile pass: one cold epoch under plain sharding. Its per-rank
	// snapshots feed the staging advisor, its cluster resolves file sizes.
	// The advisor's natural plan at the node tier's full capacity; each
	// rung truncates it to its quota.
	prof, fullAdvices, err := c.clusterStaging(ranks)
	if err != nil {
		return nil, err
	}

	// The working set the ladder scales: the largest per-rank epoch shard.
	var shardBytes int64
	for _, shard := range distributed.Shards(prof.paths, c.shuffleSeed(), ranks) {
		var b int64
		for _, p := range shard {
			if sz, ok := prof.sizeOf(p); ok {
				b += sz
			}
		}
		shardBytes = max(shardBytes, b)
	}
	if shardBytes == 0 {
		return nil, errors.New("empty shard working set")
	}

	// Cold baseline: the same two reshuffled epochs with no cache tier.
	epochs := func(o *distributed.Options) { o.Epochs = prefetchEpochs }
	cold, err := c.runCluster(clusterRun{ranks: ranks, shape: epochs})
	if err != nil {
		return nil, err
	}
	// Every rung variant must read exactly the cold epochs' bytes.
	prefetched := func(capBytes int64, peer bool) clusterRun {
		return clusterRun{ranks: ranks, shape: epochs, sameAs: cold, prefetch: &prefetch.Config{
			Depth:       prefetchDepth,
			Fetchers:    prefetchFetchers,
			CacheBytes:  capBytes,
			PeerServing: peer,
		}}
	}

	for _, frac := range prefetchCapacityLadder {
		capBytes := int64(frac * float64(shardBytes))
		row := PrefetchRow{Ranks: ranks, Frac: frac, CacheBytes: capBytes, ColdEpochSec: cold.WallSeconds / prefetchEpochs}

		// Offline baseline: the staging plan, truncated to this rung's
		// quota, applied between runs; then one prefetch daemon per node
		// over the same run plan, without and with peer serving.
		advices := make([]*core.StagingAdvice, len(fullAdvices))
		for r, adv := range fullAdvices {
			advices[r] = capStagingAdvice(adv, capBytes, prof.sizeOf)
		}
		outs, err := c.runClusters(
			clusterRun{ranks: ranks, shape: epochs, sameAs: cold, staging: advices},
			prefetched(capBytes, false),
			prefetched(capBytes, true))
		if err != nil {
			return nil, fmt.Errorf("cap %.0f%%: %w", frac*100, err)
		}
		withPeer := outs[2]
		row.StagedEpochSec = outs[0].WallSeconds / prefetchEpochs
		row.NoPeerEpochSec = outs[1].WallSeconds / prefetchEpochs
		row.PeerEpochSec = withPeer.WallSeconds / prefetchEpochs

		var local, peerHits, pfs int64
		for _, rep := range withPeer.reports {
			local += rep.Cache.LocalHits
			peerHits += rep.Cache.PeerHits
			pfs += rep.Cache.PFSReads
			row.Evictions += rep.Cache.Evictions
		}
		total := float64(local + peerHits + pfs)
		row.LocalRate = ratio(float64(local), total)
		row.PeerRate = ratio(float64(peerHits), total)
		row.PFSRate = ratio(float64(pfs), total)

		// The acceptance invariants, verified rather than just reported.
		if row.PeerEpochSec >= row.ColdEpochSec {
			return nil, fmt.Errorf("cap %.0f%%: prefetched epoch %.2fs did not beat cold Lustre %.2fs",
				frac*100, row.PeerEpochSec, row.ColdEpochSec)
		}
		if capBytes < shardBytes && row.PeerEpochSec >= row.StagedEpochSec {
			return nil, fmt.Errorf("cap %.0f%%: prefetched epoch %.2fs did not beat the static plan %.2fs on a constrained rung",
				frac*100, row.PeerEpochSec, row.StagedEpochSec)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrefetchExperiment sweeps the rank ladder and, per rank count, the cache
// capacity ladder.
func PrefetchExperiment(c Config) (*PrefetchResult, error) {
	return sweep(c, prefetchTable, c.ladder(DefaultRankSweep), c.prefetchPoint)
}
