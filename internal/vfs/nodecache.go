package vfs

import (
	"fmt"
	"path"

	"repro/internal/sim"
	"repro/internal/storage"
)

// NodeCacheConfig configures a node-local data cache (the NVMe burst
// buffer a clairvoyant prefetcher fills ahead of the consumer).
type NodeCacheConfig struct {
	// Capacity bounds the cached bytes on this node.
	Capacity int64
	// Device is the node-local device holding cached file copies (reads
	// from the cache charge this device).
	Device storage.Device
	// PeerServing lets this node's misses be served from peer node caches
	// over the interconnect (storage.LinkTransfer) instead of the PFS.
	PeerServing bool
}

// NodeCacheStats counts cache traffic. All byte counters refer to data
// reads issued by this node's consumers (not prefetch fills).
type NodeCacheStats struct {
	LocalHits  int64 // data reads served from this node's cache
	PeerHits   int64 // data reads served from a peer node's cache
	PFSReads   int64 // data reads that fell through to the backing mount
	LocalBytes int64
	PeerBytes  int64
	PFSBytes   int64

	Inserts      int64 // files fetched into the cache
	InsertBytes  int64
	Evictions    int64 // files evicted to make room
	EvictBytes   int64
	PeerMetaHits int64 // cold opens resolved from a peer cache, not the MDS
	BulkLookups  int64 // batched (statahead-style) MDS round trips
	BulkFiles    int64 // files warmed through bulk lookups
	PeerAborts   int64 // peer serves abandoned mid-flight (peer died or faulted)
}

// cacheEntry is one whole-file copy resident in a node cache.
type cacheEntry struct {
	ino      *Inode
	pos      int64 // position on the cache device
	size     int64
	consumed bool // the consumer has read it at least once (evictable)

	prev, next *cacheEntry // LRU list, most-recent at tail
}

// NodeCache is a node-local whole-file data cache over a fast device.
// Files enter via Fetch (the prefetcher's pull from the backing mount) and
// leave via LRU eviction that prefers already-consumed entries — an
// unconsumed entry is a prefetch in flight and is evicted only when no
// consumed entry remains.
type NodeCache struct {
	fs   *FS
	node int
	cfg  NodeCacheConfig

	entries map[*Inode]*cacheEntry
	head    *cacheEntry // least recently used
	tail    *cacheEntry // most recently used
	used    int64
	cursor  int64 // rotating allocation cursor on the cache device

	// onConsume, when set, fires on every data read this node issues for a
	// file (hit or miss) — the prefetcher's consumption signal.
	onConsume func(t *sim.Thread, p string)

	stats NodeCacheStats
}

// EnableNodeCache attaches a data cache to node and returns it. A node has
// at most one cache; enabling twice replaces the old cache state.
func (fs *FS) EnableNodeCache(node int, cfg NodeCacheConfig) *NodeCache {
	checkNode(node)
	if cfg.Device == nil {
		panic("vfs: node cache needs a device")
	}
	if cfg.Capacity <= 0 {
		panic("vfs: node cache needs a positive capacity")
	}
	for len(fs.caches) <= node {
		fs.caches = append(fs.caches, nil)
	}
	c := &NodeCache{fs: fs, node: node, cfg: cfg, entries: make(map[*Inode]*cacheEntry)}
	fs.caches[node] = c
	return c
}

// NodeCacheAt returns node's cache, or nil.
func (fs *FS) NodeCacheAt(node int) *NodeCache {
	if node < 0 || node >= len(fs.caches) {
		return nil
	}
	return fs.caches[node]
}

// Stats returns a copy of the cache counters.
func (c *NodeCache) Stats() NodeCacheStats { return c.stats }

// Used returns the currently cached bytes.
func (c *NodeCache) Used() int64 { return c.used }

// Capacity returns the configured byte bound.
func (c *NodeCache) Capacity() int64 { return c.cfg.Capacity }

// OnConsume registers the consumption callback (the prefetcher's window
// advance signal). It fires on every data read the node issues, hit or not.
func (c *NodeCache) OnConsume(fn func(t *sim.Thread, p string)) { c.onConsume = fn }

// Contains reports whether the whole file is resident in this cache.
func (c *NodeCache) Contains(p string) bool {
	ino, ok := c.fs.inodes[path.Clean(p)]
	if !ok {
		return false
	}
	_, ok = c.entries[ino]
	return ok
}

// PeerHas reports whether any peer node's cache holds the whole file (the
// prefetcher's don't-duplicate check under peer serving).
func (c *NodeCache) PeerHas(p string) bool {
	ino, ok := c.fs.inodes[path.Clean(p)]
	if !ok {
		return false
	}
	return c.peerHolder(ino) != nil
}

// --- LRU list plumbing -----------------------------------------------------

func (c *NodeCache) listRemove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *NodeCache) listPushTail(e *cacheEntry) {
	e.prev = c.tail
	e.next = nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

func (c *NodeCache) touch(e *cacheEntry) {
	if c.tail == e {
		return
	}
	c.listRemove(e)
	c.listPushTail(e)
}

func (c *NodeCache) remove(e *cacheEntry) {
	c.listRemove(e)
	delete(c.entries, e.ino)
	c.used -= e.size
}

// evictFor frees room for need bytes, evicting consumed entries in LRU
// order first and unconsumed ones (oldest prefetches) only as a last
// resort. Returns false when the cache cannot hold need bytes at all.
func (c *NodeCache) evictFor(need int64) bool {
	if need > c.cfg.Capacity {
		return false
	}
	for pass := 0; pass < 2 && c.used+need > c.cfg.Capacity; pass++ {
		consumedOnly := pass == 0
		for e := c.head; e != nil && c.used+need > c.cfg.Capacity; {
			next := e.next
			if !consumedOnly || e.consumed {
				c.remove(e)
				c.stats.Evictions++
				c.stats.EvictBytes += e.size
			}
			e = next
		}
	}
	return c.used+need <= c.cfg.Capacity
}

// Fetch pulls the whole file from its backing mount into the cache: a read
// of the source device plus a write of the cache device, both charged to
// the calling (prefetcher) thread. Files already resident are re-marked
// unconsumed (a fresh prefetch pins them). Errors: ErrNotExist for an
// unknown path, ErrNoSpace when the file does not fit even after eviction
// (the file is then left uncached, resident entries untouched), and ErrIO
// for an injected transient read fault (retryable — the source was never
// read). Capacity is checked before the fault roll: a fetch doomed to
// ErrNoSpace never reaches the device, so it must not consume an
// every-Nth fault-plan slot or count in FaultStats.
func (c *NodeCache) Fetch(t *sim.Thread, p string) (int64, error) {
	ino, ok := c.fs.inodes[path.Clean(p)]
	if !ok {
		return 0, ErrNotExist
	}
	if e, ok := c.entries[ino]; ok {
		e.consumed = false
		c.touch(e)
		return 0, nil
	}
	if !c.evictFor(ino.Size) {
		return 0, ErrNoSpace
	}
	if err := c.fs.dataReadFault(c.node, true); err != nil {
		return 0, err
	}
	if ino.Size > 0 {
		c.fs.chargePFSRead(t, c.node, ino, 0, ino.Size)
		if c.cursor+ino.Size > c.cfg.Capacity {
			c.cursor = 0 // wrap the rotating log
		}
		c.cfg.Device.Write(t, c.cursor, ino.Size)
	}
	e := &cacheEntry{ino: ino, pos: c.cursor, size: ino.Size}
	c.cursor += ino.Size
	c.entries[ino] = e
	c.listPushTail(e)
	c.used += e.size
	c.stats.Inserts++
	c.stats.InsertBytes += e.size
	return e.size, nil
}

// markConsumed flags the entry evictable and fires the consumption signal.
func (c *NodeCache) consume(t *sim.Thread, ino *Inode) {
	if e, ok := c.entries[ino]; ok {
		e.consumed = true
	}
	if c.onConsume != nil {
		c.onConsume(t, ino.Path)
	}
}

// invalidate drops the file from the cache (writes and unlinks make the
// cached copy stale).
func (c *NodeCache) invalidate(ino *Inode) {
	if e, ok := c.entries[ino]; ok {
		c.remove(e)
	}
}

// invalidateCached drops the file from every node cache.
func (fs *FS) invalidateCached(ino *Inode) {
	for _, c := range fs.caches {
		if c != nil {
			c.invalidate(ino)
		}
	}
}

// peerTransfer charges the interconnect cost of moving n bytes from a peer
// node; n = 0 is a metadata-only round trip.
func (c *NodeCache) peerTransfer(t *sim.Thread, n int64) {
	t.Sleep(storage.LinkTransfer(n))
}

// peerHolder scans peer caches in ascending node order for a resident copy.
func (c *NodeCache) peerHolder(ino *Inode) *NodeCache {
	for node, p := range c.fs.caches {
		if p == nil || node == c.node {
			continue
		}
		if _, ok := p.entries[ino]; ok {
			return p
		}
	}
	return nil
}

// readData serves a data read span for node: local cache, then peer caches
// over the interconnect, then the backing mount. Nodes without a cache go
// straight to the device — bit-identical to the pre-cache model.
func (fs *FS) readData(t *sim.Thread, node int, ino *Inode, off, n int64) {
	c := fs.NodeCacheAt(node)
	if c == nil {
		fs.chargePFSRead(t, node, ino, off, n)
		return
	}
	if e, ok := c.entries[ino]; ok {
		c.cfg.Device.Read(t, e.pos+off, n)
		c.touch(e)
		c.stats.LocalHits++
		c.stats.LocalBytes += n
		c.consume(t, ino)
		return
	}
	if c.cfg.PeerServing {
		if p := c.peerHolder(ino); p != nil {
			if fs.peerServeFault(node) {
				// The serve died before any data moved: pay the RPC
				// round trip, then fall back to the backing mount.
				c.peerTransfer(t, 0)
				c.stats.PeerAborts++
			} else {
				e := p.entries[ino]
				p.cfg.Device.Read(t, e.pos+off, n)
				c.peerTransfer(t, n)
				// Revalidate after the transfer: the peer's device read
				// and the interconnect hop take simulated time, and the
				// peer may have died (DropNodeState) while the serve was
				// in flight. Its extents are then stale — discard the
				// bytes and fall back to the backing mount rather than
				// serve a dead node's cache.
				if _, live := p.entries[ino]; live {
					c.stats.PeerHits++
					c.stats.PeerBytes += n
					c.consume(t, ino)
					return
				}
				c.stats.PeerAborts++
			}
		}
	}
	fs.chargePFSRead(t, node, ino, off, n)
	c.stats.PFSReads++
	c.stats.PFSBytes += n
	c.consume(t, ino)
}

// peerMetaServe resolves a cold open from a peer cache: when peer serving
// is on and a peer node caches the file, the open's metadata round trip
// goes over the interconnect instead of the metadata server. Returns true
// when the cold cost has been charged here.
func (fs *FS) peerMetaServe(t *sim.Thread, node int, ino *Inode) bool {
	c := fs.NodeCacheAt(node)
	if c == nil || !c.cfg.PeerServing {
		return false
	}
	if p := c.peerHolder(ino); p != nil {
		c.peerTransfer(t, 0)
		c.stats.PeerMetaHits++
		return true
	}
	return false
}

// BulkColdOpen warms node's metadata for a batch of existing files with a
// single metadata round trip per mount — the statahead-style batched
// lookup only a clairvoyant prefetcher can issue, since it alone knows the
// upcoming names in advance. (Lustre's statahead thread does exactly this
// for detected access patterns; the on-demand open path cannot batch.)
// Unknown paths and already-warm files are skipped. Returns the number of
// files warmed.
func (fs *FS) BulkColdOpen(t *sim.Thread, node int, paths []string) int {
	checkNode(node)
	warmed := 0
	charged := make(map[*Mount]bool)
	for _, p := range paths {
		ino, ok := fs.inodes[path.Clean(p)]
		if !ok {
			continue
		}
		if ds := fs.dirs[path.Dir(ino.Path)]; ds != nil {
			ds.warm.add(node)
		}
		if ino.warm.has(node) {
			continue
		}
		ino.warm.add(node)
		warmed++
		if !charged[ino.Mnt] {
			charged[ino.Mnt] = true
			fs.chargeMeta(t, ino.Mnt, node, ino.Extent-64*storage.KiB)
		}
	}
	if warmed > 0 {
		if c := fs.NodeCacheAt(node); c != nil {
			c.stats.BulkLookups += int64(len(charged))
			c.stats.BulkFiles += int64(warmed)
		}
	}
	return warmed
}

// String summarizes the cache for debugging.
func (c *NodeCache) String() string {
	return fmt.Sprintf("nodecache{node=%d used=%d/%d files=%d}", c.node, c.used, c.cfg.Capacity, len(c.entries))
}
