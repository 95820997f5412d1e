package dataservice

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/darshan"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

const testSeed = 20200812

// serviceFixture boots a worker fleet with preloaded Darshan and creates
// nFiles equal-size files on the shared Lustre mount.
func serviceFixture(t *testing.T, workers, nFiles int, fileSize int64) (*platform.Cluster, []string) {
	t.Helper()
	c := platform.NewKebnekaiseCluster(workers, platform.Options{PreloadDarshan: true})
	paths := make([]string, nFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/dsvc/f%04d.jpg", platform.KebnekaiseLustre, i)
		if _, err := c.FS.CreateFile(paths[i], fileSize); err != nil {
			t.Fatal(err)
		}
	}
	return c, paths
}

// TestServiceEpochExact: independent jobs (no cache tier) each receive
// exactly the batches their leases imply, every sample exactly once, and
// the fleet's PFS traffic is jobs x corpus — plus the whole run is
// deterministic and the workers' I/O lands in the merged Darshan log.
func TestServiceEpochExact(t *testing.T) {
	const workers, nFiles, jobs = 2, 24, 3
	const fileSize = int64(96 << 10)
	run := func() *Result {
		c, paths := serviceFixture(t, workers, nFiles, fileSize)
		specs := make([]JobSpec, jobs)
		for i := range specs {
			specs[i] = JobSpec{
				Name: fmt.Sprintf("job%d", i), Paths: paths,
				Shuffle: testSeed + int64(i), Batch: 5,
			}
		}
		res, err := Run(c, specs, Config{MapFn: workload.ImageNetMap, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	for _, j := range res.Jobs {
		if j.Batches != j.ExpectedBatches || j.Batches == 0 {
			t.Fatalf("%s: delivered %d batches, leases imply %d", j.Name, j.Batches, j.ExpectedBatches)
		}
		if j.Samples != nFiles {
			t.Fatalf("%s: delivered %d samples, want every file once (%d)", j.Name, j.Samples, nFiles)
		}
		if j.ColdBytes != int64(nFiles)*fileSize || j.Bytes != j.ColdBytes {
			t.Fatalf("%s: bytes %d / cold %d, want both %d", j.Name, j.Bytes, j.ColdBytes, int64(nFiles)*fileSize)
		}
	}
	// No sharing: every job reads the corpus cold off the PFS.
	if want := int64(jobs) * int64(nFiles) * fileSize; res.PFSBytesRead != want {
		t.Fatalf("PFS read %d bytes, want %d (jobs x corpus)", res.PFSBytesRead, want)
	}
	d := res.Dispatcher
	if d.Registers != jobs || d.Unregisters != jobs || d.PeakJobs != jobs {
		t.Fatalf("dispatcher saw %d/%d registrations, peak %d, want %d concurrent jobs", d.Registers, d.Unregisters, d.PeakJobs, jobs)
	}
	if d.Leases != jobs*workers || d.LeaseReleases != d.Leases {
		t.Fatalf("leases %d granted / %d released, want %d both", d.Leases, d.LeaseReleases, jobs*workers)
	}
	// Service I/O is observable: the workers' Darshan runtimes saw the
	// fleet's reads, and merging them preserves the total.
	if len(res.PerWorker) != workers {
		t.Fatalf("exported %d worker snapshots, want %d", len(res.PerWorker), workers)
	}
	if got := res.Merged.TotalPosix(darshan.POSIX_BYTES_READ); got != res.PFSBytesRead {
		t.Fatalf("merged Darshan bytes %d != PFS bytes %d", got, res.PFSBytesRead)
	}
	res2 := run()
	if res.WallSeconds != res2.WallSeconds || !reflect.DeepEqual(res.Jobs, res2.Jobs) {
		t.Fatal("identical runs diverged")
	}
}

// TestBatchTransferChargesLinkModel: delivering an n-byte batch costs the
// RPC overhead plus exactly one link transfer (5 µs + n at 12.5 GB/s).
func TestBatchTransferChargesLinkModel(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want sim.Duration
	}{
		{0, 25 * sim.Microsecond},
		{12_500_000, 25*sim.Microsecond + sim.Millisecond},
	} {
		k := sim.NewKernel()
		var got sim.Duration
		k.Spawn("trainer", func(th *sim.Thread) {
			start := th.Now()
			(&job{}).transfer(th, tc.n)
			got = th.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("transfer(%d) took %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestServiceSharedDatasetDedup: two jobs over the same dataset through
// the peer-served cache tier hit the PFS byte-exactly once — total PFS
// reads equal the corpus, half the cold volume — and finish faster than
// the same pair running independent cold pipelines.
func TestServiceSharedDatasetDedup(t *testing.T) {
	const workers, nFiles = 2, 24
	const fileSize = int64(96 << 10)
	corpus := int64(nFiles) * fileSize
	run := func(cfg Config) *Result {
		c, paths := serviceFixture(t, workers, nFiles, fileSize)
		cfg.MapFn = workload.ImageNetMap
		res, err := Run(c, []JobSpec{
			{Name: "a", Paths: paths, Shuffle: testSeed, Batch: 4},
			{Name: "b", Paths: paths, Shuffle: testSeed + 7, Batch: 4},
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared := run(Config{CacheBytes: 2 * corpus, PeerServing: true})
	cold := run(Config{})
	for _, j := range shared.Jobs {
		if j.Batches != j.ExpectedBatches || j.Bytes != corpus {
			t.Fatalf("%s: %d/%d batches, %d bytes — sharing altered delivery", j.Name, j.Batches, j.ExpectedBatches, j.Bytes)
		}
	}
	// Byte-exact dedup: every file fetched from the PFS exactly once for
	// the whole fleet, no matter that both jobs read all of it.
	if shared.PFSBytesRead != corpus {
		t.Fatalf("shared tier read %d bytes off the PFS, want exactly the corpus %d", shared.PFSBytesRead, corpus)
	}
	if want := 2 * corpus; cold.PFSBytesRead != want {
		t.Fatalf("independent pipelines read %d bytes, want %d", cold.PFSBytesRead, want)
	}
	if got, want := shared.TotalColdBytes(), 2*corpus; got != want {
		t.Fatalf("TotalColdBytes %d, want %d", got, want)
	}
	if shared.WallSeconds >= cold.WallSeconds {
		t.Fatalf("shared tier not faster: %.3fs vs %.3fs cold", shared.WallSeconds, cold.WallSeconds)
	}
	var local, peer int64
	for _, cs := range shared.CacheStats {
		local += cs.LocalHits
		peer += cs.PeerHits
	}
	if local == 0 || peer == 0 {
		t.Fatalf("cache tier idle: %d local / %d peer hits", local, peer)
	}
}

// TestServiceUtilizationBounded: every resource's utilization is busy
// server-time ÷ (servers × wall) on its busiest station, so it lies in
// [0, 1], with and without the cache tier; the dispatcher's busy time is
// exactly its RPCs at the fixed service latency.
func TestServiceUtilizationBounded(t *testing.T) {
	const workers, nFiles, jobs = 2, 24, 8
	const fileSize = int64(96 << 10)
	for _, cfg := range []Config{{}, {CacheBytes: 2 * nFiles * fileSize, PeerServing: true}} {
		c, paths := serviceFixture(t, workers, nFiles, fileSize)
		specs := make([]JobSpec, jobs)
		for i := range specs {
			specs[i] = JobSpec{Name: fmt.Sprintf("job%d", i), Paths: paths, Shuffle: testSeed + int64(i), Batch: 4}
		}
		cfg.MapFn = workload.ImageNetMap
		res, err := Run(c, specs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		u := res.Util
		for name, v := range map[string]float64{"pfs": u.PFS, "mds": u.MDS, "cache": u.Cache, "dispatcher": u.Dispatcher} {
			if v < 0 || v > 1 {
				t.Errorf("cache %d: %s utilization %v outside [0, 1]", cfg.CacheBytes, name, v)
			}
		}
		if u.PFS == 0 || u.MDS == 0 || u.Dispatcher == 0 || (u.Cache == 0) == (cfg.CacheBytes > 0) {
			t.Errorf("cache %d: utilizations %+v: an active resource reads idle, or the unused cache busy", cfg.CacheBytes, u)
		}
		d := res.Dispatcher
		if want := (d.Registers + d.Leases + d.Unregisters + d.LeaseReleases) * int64(200*sim.Microsecond); d.BusyNs != want {
			t.Errorf("cache %d: dispatcher busy %d ns, want %d (one 200 µs service per RPC)", cfg.CacheBytes, d.BusyNs, want)
		}
		if want := sim.Seconds(d.BusyNs) / res.WallSeconds; u.Dispatcher != want {
			t.Errorf("cache %d: dispatcher utilization %v, want busy ÷ wall = %v", cfg.CacheBytes, u.Dispatcher, want)
		}
	}
}
