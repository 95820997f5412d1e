// Package prefetch implements an online, per-epoch clairvoyant prefetcher
// over per-node NVMe burst buffers — the optimisation the paper's offline
// staging analysis (Sec. V, reproduced by core.AdviseClusterStaging) leaves
// on the table. Training's access order is a seeded shuffle known before
// the epoch starts (Dryden et al., "Clairvoyant Prefetching for Distributed
// Machine Learning I/O"), so a per-node daemon can walk the rank's upcoming
// shard order ahead of the consumer, pull files from the PFS into the
// node-local fast tier, and let misses fall back to peer-node caches over
// the interconnect before touching the PFS at all.
//
// The prefetcher runs as a small group of sim threads per cluster node:
// Fetchers parallel fetch workers (async prefetch I/O, the queue depth a
// real burst-buffer agent would drive) sharing two bounds — a window of at
// most Depth files fetched ahead of consumption, and at most
// maxInFlightBytes unconsumed prefetched bytes. When the epoch's working
// set exceeds the node tier, LRU eviction (preferring consumed entries —
// an unconsumed entry is a pinned in-window prefetch) keeps the cache
// within capacity.
//
// A separate statahead thread warms metadata in batches: one MDS round
// trip per metaBatch files (vfs.BulkColdOpen), the way Lustre's statahead
// thread services detected access patterns — except the clairvoyant
// schedule removes the pattern-detection risk, so the thread walks the
// whole epoch order. Warm metadata has no capacity footprint, so the
// statahead thread is not window-bound: even when the fetch workers cannot
// outrun the consumer on data, the metadata batching stands, which is
// where the advantage over cold reads comes from on metadata-bound epochs.
// The on-demand open path cannot batch — it learns each name one open at a
// time.
package prefetch

import (
	"errors"
	"fmt"

	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// Config tunes one node's prefetcher.
type Config struct {
	// Depth is the prefetch window: at most this many files fetched ahead
	// of the consumer (0 = DefaultDepth).
	Depth int
	// CacheBytes is the node cache capacity (required, > 0).
	CacheBytes int64
	// PeerServing lets misses (data and metadata) be served from peer node
	// caches over the interconnect, and makes the prefetcher skip files
	// already resident on a peer instead of duplicating them.
	PeerServing bool
	// Fetchers is the number of parallel fetch workers (0 =
	// DefaultFetchers; always additionally clamped to Depth, since more
	// workers than window permits just park).
	Fetchers int
}

// Defaults for Config zero fields.
const (
	DefaultDepth    = 8
	DefaultFetchers = 4
)

// maxInFlightBytes bounds the unconsumed prefetched bytes (additionally
// clamped to the cache capacity), and metaBatch is the statahead
// bulk-lookup batch size: one MDS round trip per metaBatch files.
const (
	maxInFlightBytes = 256 << 20
	metaBatch        = 32
)

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	if c.Fetchers <= 0 {
		c.Fetchers = DefaultFetchers
	}
	if c.Fetchers > c.Depth {
		c.Fetchers = c.Depth
	}
	return c
}

// Stats counts one prefetcher's own activity (cache traffic is counted by
// vfs.NodeCacheStats).
type Stats struct {
	Fetched      int64 // files pulled from the PFS into the node cache
	FetchedBytes int64
	SkippedPeer  int64 // schedule entries already resident on a peer
	Refused      int64 // files that did not fit even after eviction
	FetchFaults  int64 // schedule entries abandoned after a transient fetch fault
}

// Prefetcher is one node's clairvoyant prefetch daemon.
type Prefetcher struct {
	fs       *vfs.FS
	node     int
	cache    *vfs.NodeCache
	cfg      Config
	schedule []string

	window *sim.Semaphore // Depth permits: files in flight
	bytes  *sim.Semaphore // byteBound permits: bytes in flight
	// inflight maps each fetched-but-unconsumed schedule entry to the need
	// bytes it holds (with one window slot) until the consumer's first
	// read of the file releases them and deletes the entry.
	inflight map[string]int
	next     int // shared schedule cursor of the fetch workers
	stopped  bool

	stats Stats
}

// byteBound is the byte-semaphore size: in-flight bytes can never usefully
// exceed the cache capacity.
func (c Config) byteBound() int {
	return int(min(maxInFlightBytes, c.CacheBytes))
}

// Start attaches a node cache to node (capacity cfg.CacheBytes on dev) and
// spawns its prefetch daemon walking schedule. Must be called before the
// kernel runs the training job.
func Start(k *sim.Kernel, fs *vfs.FS, node int, dev storage.Device, schedule []string, cfg Config) *Prefetcher {
	cfg = cfg.withDefaults()
	if cfg.CacheBytes <= 0 {
		panic("prefetch: CacheBytes must be positive")
	}
	cache := fs.EnableNodeCache(node, vfs.NodeCacheConfig{
		Capacity:    cfg.CacheBytes,
		Device:      dev,
		PeerServing: cfg.PeerServing,
	})
	p := &Prefetcher{
		fs:       fs,
		node:     node,
		cache:    cache,
		cfg:      cfg,
		schedule: schedule,
		window:   sim.NewSemaphore(cfg.Depth),
		bytes:    sim.NewSemaphore(cfg.byteBound()),
		inflight: make(map[string]int),
	}
	cache.OnConsume(p.consumed)
	k.Spawn(fmt.Sprintf("statahead%d", node), p.statahead)
	for w := 0; w < cfg.Fetchers; w++ {
		k.Spawn(fmt.Sprintf("prefetch%d.%d", node, w), p.fetchLoop)
	}
	return p
}

// Cache returns the node cache the prefetcher fills.
func (p *Prefetcher) Cache() *vfs.NodeCache { return p.cache }

// Stats returns a copy of the prefetcher counters.
func (p *Prefetcher) Stats() Stats { return p.stats }

// statahead walks the whole schedule warming metadata in bulk batches.
// It is not window-bound: warm metadata costs nothing to hold, and the
// one-RPC-per-batch lookups must stay ahead of the consumer even when the
// data fetch workers cannot. Batches whose files are all warm already
// (epoch-two entries) charge nothing.
func (p *Prefetcher) statahead(t *sim.Thread) {
	for i := 0; i < len(p.schedule); i += metaBatch {
		if p.stopped {
			return
		}
		end := min(i+metaBatch, len(p.schedule))
		p.fs.BulkColdOpen(t, p.node, p.schedule[i:end])
	}
}

// fetchLoop is one fetch worker: claim the next schedule entry, acquire
// window and byte permits, pull the file into the node cache. Permits come
// back through consumed. Workers share the cursor, so fetches issue in
// schedule order with up to Fetchers in flight at once.
func (p *Prefetcher) fetchLoop(t *sim.Thread) {
	bound := p.cfg.byteBound()
	for !p.stopped && p.next < len(p.schedule) {
		path := p.schedule[p.next]
		p.next++
		ino, ok := p.fs.Lookup(path)
		if !ok {
			continue
		}
		if p.cfg.PeerServing && !p.cache.Contains(path) && p.cache.PeerHas(path) {
			p.stats.SkippedPeer++
			continue
		}
		need := int(min(ino.Size, int64(bound)))
		p.window.Acquire(t, 1)
		if need > 0 {
			p.bytes.Acquire(t, need)
		}
		if p.stopped {
			p.release(t, need)
			return
		}
		if _, err := p.cache.Fetch(t, path); err != nil {
			if errors.Is(err, vfs.ErrIO) {
				// Transient fault: abandon the entry; the consumer reads
				// the file cold from the PFS later.
				p.stats.FetchFaults++
			} else {
				p.stats.Refused++
			}
			p.release(t, need)
			continue
		}
		p.stats.Fetched++
		p.stats.FetchedBytes += ino.Size
		if _, ok := p.inflight[path]; ok {
			// Refetched while still in-window (epoch boundary): the entry
			// already holds permits; drop this fetch's immediately.
			p.release(t, need)
		} else {
			p.inflight[path] = need
		}
	}
}

// consumed is the cache's consumption signal: the consumer's first read of
// a fetched file returns its window slot and bytes to the daemon.
func (p *Prefetcher) consumed(t *sim.Thread, path string) {
	need, ok := p.inflight[path]
	if !ok {
		return
	}
	delete(p.inflight, path)
	p.release(t, need)
}

// release returns one entry's window slot and its need bytes.
func (p *Prefetcher) release(t *sim.Thread, need int) {
	p.window.Release(t, 1)
	if need > 0 {
		p.bytes.Release(t, need)
	}
}

// Stop wakes and terminates the daemon (idempotent). Wired as the rank's
// distributed.Options.AfterRank hook: lockstep truncation can leave tail
// schedule entries unconsumed, and without the stop the parked daemon
// would deadlock the kernel at job end.
func (p *Prefetcher) Stop(t *sim.Thread) {
	if p.stopped {
		return
	}
	p.stopped = true
	p.window.Release(t, p.cfg.Depth)
	p.bytes.Release(t, p.cfg.byteBound())
}

// NodeReport is one node's combined prefetch and cache counters.
type NodeReport struct {
	Node     int
	Prefetch Stats
	Cache    vfs.NodeCacheStats
}

// RunCluster executes an epochs-long distributed training job with a
// clairvoyant prefetcher on every node: one prefetch daemon per node walks
// its rank's whole-job sequence of the run plan (distributed.NewPlan, a
// fresh seeded reshuffle per epoch) ahead of the rank, which reads the same
// sequence, and each rank's AfterRank hook stops its daemon. Returns the
// run result plus per-node reports, in node order.
func RunCluster(c *platform.Cluster, paths []string, opts distributed.Options, cfg Config, epochs int) (*distributed.Result, []NodeReport, error) {
	ranks := len(c.Nodes)
	if ranks == 0 {
		return nil, nil, fmt.Errorf("prefetch: cluster has no nodes")
	}
	opts.Epochs = epochs
	plan, err := distributed.NewPlan(paths, opts.Shuffle, ranks, opts.Epochs, opts.Batch)
	if err != nil {
		return nil, nil, err
	}
	prefetchers := make([]*Prefetcher, ranks)
	for r := 0; r < ranks; r++ {
		prefetchers[r] = Start(c.K, c.FS, c.Nodes[r].Node, c.Nodes[r].Optane, plan.Seq[r], cfg)
	}
	opts.AfterRank = func(t *sim.Thread, rank int) { prefetchers[rank].Stop(t) }
	res, err := distributed.Run(c, paths, opts)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]NodeReport, ranks)
	for r := 0; r < ranks; r++ {
		reports[r] = NodeReport{
			Node:     c.Nodes[r].Node,
			Prefetch: prefetchers[r].Stats(),
			Cache:    prefetchers[r].Cache().Stats(),
		}
	}
	return res, reports, nil
}
