package vfs

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// TestPerNodeColdOpen is the shared-warm-metadata regression test: two
// ranks on different nodes both pay the cold first-open metadata cost on a
// shared file — warming is client-side state, never global.
func TestPerNodeColdOpen(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	if _, err := fs.CreateFile("/data/shared.bin", 1000); err != nil {
		t.Fatal(err)
	}
	v0, v1 := fs.NodeView(0), fs.NodeView(1)
	runSim(t, func(th *sim.Thread) {
		open := func(v *View) {
			fd, err := v.Open(th, "/data/shared.bin", O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(th, fd); err != nil {
				t.Fatal(err)
			}
		}
		open(v0)
		afterNode0 := hdd.Counters().MetaOps
		if afterNode0 == 0 {
			t.Fatal("node 0 first open charged no metadata I/O")
		}
		open(v0)
		if got := hdd.Counters().MetaOps; got != afterNode0 {
			t.Fatalf("node 0 re-open charged metadata I/O (%d -> %d)", afterNode0, got)
		}
		open(v1)
		afterNode1 := hdd.Counters().MetaOps
		if afterNode1 != 2*afterNode0 {
			t.Fatalf("node 1 first open charged %d metadata ops, want %d (its own cold cost)",
				afterNode1-afterNode0, afterNode0)
		}
		open(v1)
		if got := hdd.Counters().MetaOps; got != afterNode1 {
			t.Fatalf("node 1 re-open charged metadata I/O (%d -> %d)", afterNode1, got)
		}
	})
}

// warmOpen opens and closes p through v, charging v's node the cold metadata
// cost on first touch.
func warmOpen(t *testing.T, th *sim.Thread, v *View, p string) {
	t.Helper()
	fd, err := v.Open(th, p, O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.fs.Close(th, fd); err != nil {
		t.Fatal(err)
	}
}

// TestPlainFSIsNodeZero pins the compat surface: warming through the plain
// FS methods is exactly node 0's view.
func TestPlainFSIsNodeZero(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	if _, err := fs.CreateFile("/data/a.bin", 100); err != nil {
		t.Fatal(err)
	}
	runSim(t, func(th *sim.Thread) {
		fd, err := fs.Open(th, "/data/a.bin", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(th, fd); err != nil {
			t.Fatal(err)
		}
		cold := hdd.Counters().MetaOps
		warmOpen(t, th, fs.NodeView(0), "/data/a.bin")
		if got := hdd.Counters().MetaOps; got != cold {
			t.Fatalf("NodeView(0) re-open charged metadata I/O (%d -> %d)", cold, got)
		}
	})
}

// nodeCacheFixture is a two-node FS over one shared data device with a
// cache device per node.
func nodeCacheFixture(t *testing.T, capacity int64, peer bool) (*FS, *storage.HDD, [2]*NodeCache) {
	t.Helper()
	fs, _, _, hdd, _ := testFS()
	var caches [2]*NodeCache
	for n := 0; n < 2; n++ {
		dev := storage.NewFlash("cache", storage.DefaultOptaneParams())
		caches[n] = fs.EnableNodeCache(n, NodeCacheConfig{
			Capacity:    capacity,
			Device:      dev,
			PeerServing: peer,
		})
	}
	return fs, hdd, caches
}

func TestNodeCacheLocalAndPeerServing(t *testing.T) {
	fs, hdd, caches := nodeCacheFixture(t, 10<<20, true)
	if _, err := fs.CreateFile("/data/x.bin", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateFile("/data/warmup.bin", 1<<10); err != nil {
		t.Fatal(err)
	}
	v0, v1 := fs.NodeView(0), fs.NodeView(1)
	readAll := func(th *sim.Thread, v *View) {
		fd, err := v.Open(th, "/data/x.bin", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Pread(th, fd, nil, 1<<20, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(th, fd); err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, func(th *sim.Thread) {
		// Miss first: node 0's read falls through to the data device.
		readAll(th, v0)
		if s := caches[0].Stats(); s.PFSReads != 1 || s.LocalHits != 0 {
			t.Fatalf("cold read: stats = %+v, want one PFS read", s)
		}
		// Fetch into node 0's cache, then node 0 hits locally.
		if _, err := caches[0].Fetch(th, "/data/x.bin"); err != nil {
			t.Fatal("fetch refused:", err)
		}
		readAll(th, v0)
		if s := caches[0].Stats(); s.LocalHits != 1 {
			t.Fatalf("after fetch: stats = %+v, want one local hit", s)
		}
		// Warm node 1's directory cache first (peer serving replaces the
		// per-file inode RPC, not the once-per-directory lookup).
		warmOpen(t, th, v1, "/data/warmup.bin")
		// Node 1 is cold on the file but peer serving resolves both the
		// metadata and the data from node 0's cache: the shared data device
		// sees no new traffic.
		dataOps := hdd.Counters()
		readAll(th, v1)
		if s := caches[1].Stats(); s.PeerHits != 1 || s.PeerMetaHits != 1 {
			t.Fatalf("peer read: stats = %+v, want one peer hit and one peer metadata hit", s)
		}
		if got := hdd.Counters(); got.ReadOps != dataOps.ReadOps || got.MetaOps != dataOps.MetaOps {
			t.Fatalf("peer-served read touched the data device: %+v -> %+v", dataOps, got)
		}
	})
}

// TestNodeCacheWriteInvalidates: writing a file drops every node's cached
// copy, so the next read goes back to the device.
func TestNodeCacheWriteInvalidates(t *testing.T) {
	fs, _, caches := nodeCacheFixture(t, 10<<20, false)
	if _, err := fs.CreateFile("/data/x.bin", 1<<10); err != nil {
		t.Fatal(err)
	}
	runSim(t, func(th *sim.Thread) {
		if _, err := caches[0].Fetch(th, "/data/x.bin"); err != nil {
			t.Fatal("fetch refused:", err)
		}
		stdio := NewStdioNode(fs, 0)
		st, err := stdio.Fopen(th, "/data/x.bin", "w")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stdio.Fwrite(th, st, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if err := stdio.Fclose(th, st); err != nil {
			t.Fatal(err)
		}
		if caches[0].Contains("/data/x.bin") {
			t.Fatal("write did not invalidate the cached copy")
		}
	})
}

// TestBulkColdOpen: a batch of cold files is warmed with one metadata
// round trip per mount — and only for the charged node.
func TestBulkColdOpen(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = "/data/bulk" + string(rune('a'+i))
		if _, err := fs.CreateFile(paths[i], 100); err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, func(th *sim.Thread) {
		before := hdd.Counters().MetaOps
		if got := fs.BulkColdOpen(th, 0, paths); got != len(paths) {
			t.Fatalf("BulkColdOpen warmed %d files, want %d", got, len(paths))
		}
		if got := hdd.Counters().MetaOps - before; got != 1 {
			t.Fatalf("bulk lookup charged %d metadata ops, want 1", got)
		}
		// Node 0 is now warm; a plain open charges nothing further.
		warm := hdd.Counters().MetaOps
		fd, err := fs.Open(th, paths[0], O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		fs.Close(th, fd)
		if got := hdd.Counters().MetaOps; got != warm {
			t.Fatalf("open after bulk warm charged metadata I/O (%d -> %d)", warm, got)
		}
		// Node 1 was not part of the bulk lookup and still pays cold cost.
		warmOpen(t, th, fs.NodeView(1), paths[0])
		if got := hdd.Counters().MetaOps; got == warm {
			t.Fatal("node 1 open after node 0 bulk warm charged no metadata I/O")
		}
	})
}

// TestNodeCacheEvictionBound: inserting beyond capacity evicts consumed
// entries first and never exceeds the bound.
func TestNodeCacheEvictionBound(t *testing.T) {
	const fileSize = 1 << 20
	fs, _, caches := nodeCacheFixture(t, 4*fileSize, false)
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = "/data/ev" + string(rune('a'+i))
		if _, err := fs.CreateFile(paths[i], fileSize); err != nil {
			t.Fatal(err)
		}
	}
	c := caches[0]
	v := fs.NodeView(0)
	runSim(t, func(th *sim.Thread) {
		for _, p := range paths {
			if _, err := c.Fetch(th, p); err != nil {
				t.Fatalf("fetch %s refused: %v", p, err)
			}
			if c.Used() > c.Capacity() {
				t.Fatalf("cache exceeded capacity: %d > %d", c.Used(), c.Capacity())
			}
			// Consume so the entry is evictable.
			fd, err := v.Open(th, p, O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Pread(th, fd, nil, fileSize, 0); err != nil {
				t.Fatal(err)
			}
			fs.Close(th, fd)
		}
		s := c.Stats()
		if s.Evictions != 4 {
			t.Fatalf("evictions = %d, want 4", s.Evictions)
		}
		if s.LocalHits != int64(len(paths)) {
			t.Fatalf("local hits = %d, want %d", s.LocalHits, len(paths))
		}
		// The four most recent files are resident; the first four are gone.
		for i, p := range paths {
			want := i >= 4
			if got := c.Contains(p); got != want {
				t.Fatalf("Contains(%s) = %v, want %v", p, got, want)
			}
		}
	})
}

// TestNodeCacheRefusesOversizedFile: a file larger than the whole cache is
// refused rather than evicting everything.
func TestNodeCacheRefusesOversizedFile(t *testing.T) {
	fs, _, caches := nodeCacheFixture(t, 1<<20, false)
	if _, err := fs.CreateFile("/data/big.bin", 2<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateFile("/data/small.bin", 1<<10); err != nil {
		t.Fatal(err)
	}
	c := caches[0]
	runSim(t, func(th *sim.Thread) {
		if _, err := c.Fetch(th, "/data/small.bin"); err != nil {
			t.Fatal("small fetch refused:", err)
		}
		if _, err := c.Fetch(th, "/data/big.bin"); err != ErrNoSpace {
			t.Fatalf("oversized fetch: err = %v, want ErrNoSpace", err)
		}
		if !c.Contains("/data/small.bin") {
			t.Fatal("refused oversized fetch evicted resident entries")
		}
	})
}

// TestPeerTransferChargesLinkModel: a peer serve of n bytes costs exactly
// one link transfer (5 µs + n at 12.5 GB/s); n = 0 is a metadata-only
// round trip.
func TestPeerTransferChargesLinkModel(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want sim.Duration
	}{
		{0, 5 * sim.Microsecond},
		{12_500_000, 5*sim.Microsecond + sim.Millisecond},
	} {
		k := sim.NewKernel()
		var got sim.Duration
		k.Spawn("reader", func(th *sim.Thread) {
			start := th.Now()
			(&NodeCache{}).peerTransfer(th, tc.n)
			got = th.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("peerTransfer(%d) took %v, want %v", tc.n, got, tc.want)
		}
	}
}
