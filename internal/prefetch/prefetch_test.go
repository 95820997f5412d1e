package prefetch

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vfs"
	"repro/internal/workload"
)

const testSeed = 20200812

// ladderFixture builds a single-node FS over a Lustre data mount with
// nFiles equal-size files and returns the cache device to prefetch onto.
func ladderFixture(t *testing.T, nFiles int, fileSize int64) (*sim.Kernel, *vfs.FS, *storage.Flash, []string) {
	t.Helper()
	k := sim.NewKernel()
	fs := vfs.New()
	lustre := storage.NewLustre("lustre", storage.DefaultLustreParams())
	fs.AddMount(&vfs.Mount{Prefix: "/pfs", Dev: lustre, OpenMetaTrips: 1, DirMetaTrips: 1})
	paths := make([]string, nFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pfs/data/f%04d.bin", i)
		if _, err := fs.CreateFile(paths[i], fileSize); err != nil {
			t.Fatal(err)
		}
	}
	cacheDev := storage.NewFlash("nvme-cache", storage.DefaultOptaneParams())
	return k, fs, cacheDev, paths
}

// readWholeFile consumes one file as node 0 with a count-only pread, the
// way the training pipeline's ReadFile loop does.
func readWholeFile(t *testing.T, th *sim.Thread, fs *vfs.FS, p string, size int64) {
	t.Helper()
	fd, err := fs.Open(th, p, vfs.O_RDONLY)
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := fs.Pread(th, fd, nil, size, 0); err != nil {
		t.Error(err)
	}
	if err := fs.Close(th, fd); err != nil {
		t.Error(err)
	}
}

// TestEvictionLadder is the cache-ladder coverage: with a shard set larger
// than the node tier, eviction keeps the cache within bound at every rung,
// and the second-epoch hit rate (retention — epoch 2 is read with no
// prefetcher help, so hits come only from files the bounded cache kept)
// degrades monotonically as the cache shrinks.
func TestEvictionLadder(t *testing.T) {
	const nFiles = 48
	const fileSize = int64(256 << 10)
	epoch2 := func(paths []string) []string {
		return distributed.ShardPaths(paths, testSeed+1, 1, 0)
	}
	rungFiles := []int64{8, 16, 32, 64}
	hits := make([]int64, len(rungFiles))
	for i, rf := range rungFiles {
		capacity := rf * fileSize
		k, fs, cacheDev, paths := ladderFixture(t, nFiles, fileSize)
		// The prefetcher walks epoch 1 only; epoch 2 measures retention.
		p := Start(k, fs, 0, cacheDev, distributed.ShardPaths(paths, testSeed, 1, 0), Config{
			CacheBytes: capacity, Depth: 8,
		})
		var ep2Hits int64
		k.Spawn("consumer", func(th *sim.Thread) {
			for _, f := range distributed.ShardPaths(paths, testSeed, 1, 0) {
				readWholeFile(t, th, fs, f, fileSize)
				// Per-sample compute: the headroom that lets the daemon run
				// ahead of consumption, as training's map+step time does.
				th.Sleep(sim.FromMillis(2))
				if got := p.Cache().Used(); got > capacity {
					t.Errorf("rung %d: cache exceeded bound mid-run: %d > %d", rf, got, capacity)
				}
				// Each ledger entry holds a window slot until consumed, so
				// consumed entries must be gone from it.
				if n := len(p.inflight); n > 8 {
					t.Errorf("rung %d: %d ledger entries past a window of 8", rf, n)
				}
			}
			afterEp1 := p.Cache().Stats().LocalHits
			for _, f := range epoch2(paths) {
				readWholeFile(t, th, fs, f, fileSize)
			}
			ep2Hits = p.Cache().Stats().LocalHits - afterEp1
			// The daemon's tail fetches may never be consumed again; stop
			// it the way the rank's AfterRank hook does in a real run.
			p.Stop(th)
		})
		if err := k.Run(); err != nil {
			t.Fatalf("rung %d: %v", rf, err)
		}
		if used := p.Cache().Used(); used > capacity {
			t.Fatalf("rung %d: cache over bound at end: %d > %d", rf, used, capacity)
		}
		if int64(nFiles)*fileSize > capacity {
			if p.Cache().Stats().Evictions == 0 {
				t.Fatalf("rung %d: working set exceeds the tier but nothing was evicted", rf)
			}
		} else if p.Cache().Stats().Evictions != 0 {
			t.Fatalf("rung %d: evicted with the whole working set in bound", rf)
		}
		hits[i] = ep2Hits
	}
	for i := 1; i < len(hits); i++ {
		if hits[i] < hits[i-1] {
			t.Fatalf("hit count not monotone in cache size: %v", hits)
		}
	}
	if hits[0] >= hits[len(hits)-1] {
		t.Fatalf("hit rate did not degrade under capacity pressure: %v", hits)
	}
}

// TestStopUnblocksTruncatedConsumer: when the consumer stops early (the
// lockstep truncation case), Stop must wake the parked daemon or the
// kernel deadlocks at job end.
func TestStopUnblocksTruncatedConsumer(t *testing.T) {
	const nFiles = 32
	const fileSize = int64(64 << 10)
	k, fs, cacheDev, paths := ladderFixture(t, nFiles, fileSize)
	sched := distributed.ShardPaths(paths, testSeed, 1, 0)
	p := Start(k, fs, 0, cacheDev, sched, Config{
		CacheBytes: 4 * fileSize, Depth: 2,
	})
	k.Spawn("consumer", func(th *sim.Thread) {
		for _, f := range sched[:4] {
			readWholeFile(t, th, fs, f, fileSize)
		}
		p.Stop(th)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("kernel did not drain after Stop: %v", err)
	}
}

// TestRunClusterEndToEnd drives the full wrapper on a small cluster: per-
// epoch schedules, one daemon per node, peer serving on — and pins that
// the run completes with overwhelmingly cache-served reads and that two
// identical runs are deterministic.
func TestRunClusterEndToEnd(t *testing.T) {
	const ranks, files = 2, 48
	run := func() (*distributed.Result, []NodeReport) {
		c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true})
		spec := workload.DatasetSpec{
			Name: "pf", Dir: platform.KebnekaiseLustre + "/pf",
			NumFiles: files, TotalBytes: int64(files) * 96 * 1024, Seed: testSeed,
		}
		d, err := workload.Generate(c.FS, spec, workload.ImageNetSizes(spec))
		if err != nil {
			t.Fatal(err)
		}
		opts := distributed.Options{
			Threads: 4, Batch: 8, Prefetch: 4, Shuffle: testSeed,
			Model: workload.AlexNet, MapFn: workload.ImageNetMap,
		}
		res, reports, err := RunCluster(c, d.Paths, opts, Config{
			CacheBytes:  64 << 20,
			PeerServing: true,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res, reports
	}
	res, reports := run()
	if len(reports) != ranks {
		t.Fatalf("got %d node reports, want %d", len(reports), ranks)
	}
	for _, r := range reports {
		served := r.Cache.LocalHits + r.Cache.PeerHits
		if served == 0 {
			t.Fatalf("node %d: no cache-served reads at all: %+v", r.Node, r.Cache)
		}
		if r.Prefetch.Fetched == 0 {
			t.Fatalf("node %d: prefetcher fetched nothing", r.Node)
		}
	}
	for _, rr := range res.PerRank {
		// The per-epoch shard, not the two-epoch sequence.
		if rr.ShardFiles != files/ranks {
			t.Fatalf("rank %d shard files = %d, want %d", rr.Rank, rr.ShardFiles, files/ranks)
		}
	}
	res2, reports2 := run()
	if res.WallSeconds != res2.WallSeconds {
		t.Fatalf("wall time not deterministic: %v vs %v", res.WallSeconds, res2.WallSeconds)
	}
	if !reflect.DeepEqual(reports, reports2) {
		t.Fatal("node reports not deterministic across identical runs")
	}
}

// TestElasticOverPrefetchSchedules: elastic recovery re-shards a
// prefetched multi-epoch job like any other run plan. Rank 1 dies at step
// 5; the survivors absorb its remaining two-epoch sequence and the job
// completes without a deadlock.
func TestElasticOverPrefetchSchedules(t *testing.T) {
	const ranks, files = 4, 128
	c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true})
	spec := workload.DatasetSpec{
		Name: "pf", Dir: platform.KebnekaiseLustre + "/pf",
		NumFiles: files, TotalBytes: int64(files) * 96 * 1024, Seed: testSeed,
	}
	d, err := workload.Generate(c.FS, spec, workload.ImageNetSizes(spec))
	if err != nil {
		t.Fatal(err)
	}
	opts := distributed.Options{
		Threads: 4, Batch: 4, Prefetch: 4, Shuffle: testSeed,
		Model: workload.AlexNet, MapFn: workload.ImageNetMap,
		Elastic:  true,
		Failures: []distributed.FailureEvent{{Rank: 1, Step: 5, RebootDelay: sim.Second}},
	}
	res, _, err := RunCluster(c, d.Paths, opts, Config{CacheBytes: 64 << 20, PeerServing: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("got %d failure records, want 1", len(res.Failures))
	}
	if f := res.Failures[0]; !f.Elastic || f.ReshardFiles <= 0 {
		t.Fatalf("failure record %+v, want an elastic re-shard", f)
	}
}
