package vfs

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// TestFaultReadErrNth: every Nth data read per node fails with ErrIO, and
// the cadence is per node — one node's reads never shift which of another
// node's reads fail.
func TestFaultReadErrNth(t *testing.T) {
	fs, _, _, _, _ := testFS()
	if _, err := fs.CreateFile("/data/a.bin", 4096); err != nil {
		t.Fatal(err)
	}
	fs.InjectFaults(FaultPlan{ReadErrNth: 3})
	v0, v1 := fs.NodeView(0), fs.NodeView(1)
	runSim(t, func(th *sim.Thread) {
		read := func(v *View) error {
			fd, err := v.Open(th, "/data/a.bin", O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			_, err = fs.Pread(th, fd, nil, 512, 0)
			if cerr := fs.Close(th, fd); cerr != nil {
				t.Fatal(cerr)
			}
			return err
		}
		for i := 1; i <= 6; i++ {
			err := read(v0)
			if i%3 == 0 {
				if !errors.Is(err, ErrIO) {
					t.Fatalf("node 0 read %d: err = %v, want ErrIO", i, err)
				}
			} else if err != nil {
				t.Fatalf("node 0 read %d: unexpected error %v", i, err)
			}
		}
		// Node 1 starts its own cadence at 1 despite node 0's six reads.
		for i := 1; i <= 2; i++ {
			if err := read(v1); err != nil {
				t.Fatalf("node 1 read %d: unexpected error %v", i, err)
			}
		}
		if err := read(v1); !errors.Is(err, ErrIO) {
			t.Fatalf("node 1 read 3: err = %v, want ErrIO", err)
		}
	})
	if s := fs.FaultStatsAt(0); s.ReadFaults != 2 {
		t.Fatalf("node 0 ReadFaults = %d, want 2", s.ReadFaults)
	}
	if s := fs.FaultStatsAt(1); s.ReadFaults != 1 {
		t.Fatalf("node 1 ReadFaults = %d, want 1", s.ReadFaults)
	}
}

// TestFaultFullCacheFetchAccounting: a cache fetch doomed to ErrNoSpace
// never touches the device, so it must neither consume an every-Nth
// fault-plan slot nor count in FaultStats — the cadence belongs to fetches
// that actually issue reads. (The fault used to be rolled before the
// capacity check, so oversize fetches burned slots and inflated counts.)
func TestFaultFullCacheFetchAccounting(t *testing.T) {
	fs, _, caches := nodeCacheFixture(t, 1<<20, false)
	for _, f := range []struct {
		path string
		size int64
	}{
		{"/data/big.bin", 2 << 20}, // larger than the cache: every fetch is doomed
		{"/data/a.bin", 100 << 10},
		{"/data/b.bin", 100 << 10},
	} {
		if _, err := fs.CreateFile(f.path, f.size); err != nil {
			t.Fatal(err)
		}
	}
	fs.InjectFaults(FaultPlan{ReadErrNth: 2})
	c := caches[0]
	runSim(t, func(th *sim.Thread) {
		// Three doomed fetches: all ErrNoSpace, no cadence slots consumed.
		for i := 0; i < 3; i++ {
			if _, err := c.Fetch(th, "/data/big.bin"); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("oversize fetch %d: err = %v, want ErrNoSpace", i, err)
			}
		}
		// The eligible fetches start the cadence fresh: slot 1 succeeds,
		// slot 2 faults.
		if _, err := c.Fetch(th, "/data/a.bin"); err != nil {
			t.Fatalf("first eligible fetch: err = %v, want nil (cadence slot 1)", err)
		}
		if _, err := c.Fetch(th, "/data/b.bin"); !errors.Is(err, ErrIO) {
			t.Fatalf("second eligible fetch: err = %v, want ErrIO (cadence slot 2)", err)
		}
	})
	s := fs.FaultStatsAt(0)
	if s.FetchFaults != 1 || s.ReadFaults != 0 {
		t.Fatalf("fault stats = %+v, want exactly one fetch fault and no read faults", s)
	}
}

// TestFaultMDSBrownout: metadata ops inside a brownout window are
// stretched by the window factor and counted.
func TestFaultMDSBrownout(t *testing.T) {
	cold := func(plan FaultPlan) (int64, FaultStats) {
		fs, _, _, _, _ := testFS()
		if _, err := fs.CreateFile("/data/a.bin", 1000); err != nil {
			t.Fatal(err)
		}
		fs.InjectFaults(plan)
		end := runSim(t, func(th *sim.Thread) {
			warmOpen(t, th, fs.NodeView(0), "/data/a.bin")
		})
		return end, fs.TotalFaultStats()
	}
	clean, _ := cold(FaultPlan{})
	slow, stats := cold(FaultPlan{MDSBrownouts: []FaultWindow{{Start: 0, End: sim.Second, Factor: 8}}})
	if stats.BrownoutOps == 0 || stats.BrownoutNs <= 0 {
		t.Fatalf("brownout stats = %+v, want stretched metadata ops", stats)
	}
	if slow <= clean {
		t.Fatalf("browned-out cold stat took %dns, clean %dns; want slower", slow, clean)
	}
	if slow-clean != stats.BrownoutNs {
		t.Fatalf("extra time %dns != injected BrownoutNs %dns", slow-clean, stats.BrownoutNs)
	}
}

// TestFaultDegradedOST: PFS data reads inside a degraded window are
// stretched; reads outside the window are untouched.
func TestFaultDegradedOST(t *testing.T) {
	run := func(plan FaultPlan) (int64, FaultStats) {
		fs, _, _, _, _ := testFS()
		if _, err := fs.CreateFile("/data/a.bin", 1<<20); err != nil {
			t.Fatal(err)
		}
		fs.InjectFaults(plan)
		end := runSim(t, func(th *sim.Thread) {
			fd, err := fs.Open(th, "/data/a.bin", O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Pread(th, fd, nil, 1<<20, 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(th, fd); err != nil {
				t.Fatal(err)
			}
		})
		return end, fs.TotalFaultStats()
	}
	clean, _ := run(FaultPlan{})
	slow, stats := run(FaultPlan{DegradedOSTs: []FaultWindow{{Start: 0, End: 60 * sim.Second, Factor: 4}}})
	if stats.DegradedReads == 0 || stats.DegradedNs <= 0 {
		t.Fatalf("degraded stats = %+v, want stretched reads", stats)
	}
	if slow <= clean {
		t.Fatalf("degraded read took %dns, clean %dns; want slower", slow, clean)
	}
	// A window that already closed injects nothing.
	late, lateStats := run(FaultPlan{DegradedOSTs: []FaultWindow{{Start: 3600 * sim.Second, End: 7200 * sim.Second, Factor: 4}}})
	if late != clean || lateStats.DegradedReads != 0 {
		t.Fatalf("closed window: end %dns (clean %dns), stats %+v; want untouched", late, clean, lateStats)
	}
}

// TestFaultRateDeterminism: the seeded per-read error rolls reproduce
// exactly across runs — identical seeds fault identical reads.
func TestFaultRateDeterminism(t *testing.T) {
	pattern := func() []int {
		fs, _, _, _, _ := testFS()
		if _, err := fs.CreateFile("/data/a.bin", 4096); err != nil {
			t.Fatal(err)
		}
		fs.InjectFaults(FaultPlan{Seed: 42, ReadErrRate: 0.3})
		var failed []int
		runSim(t, func(th *sim.Thread) {
			fd, err := fs.Open(th, "/data/a.bin", O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if _, err := fs.Pread(th, fd, nil, 64, 0); errors.Is(err, ErrIO) {
					failed = append(failed, i)
				}
			}
			if err := fs.Close(th, fd); err != nil {
				t.Fatal(err)
			}
		})
		return failed
	}
	a, b := pattern(), pattern()
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 40 reads injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("runs disagree: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs disagree at %d: %v vs %v", i, a, b)
		}
	}
}

// TestFaultDisarmedIdentity: an inactive plan (zero value) leaves the
// workload bit-identical to a never-faulted FS.
func TestFaultDisarmedIdentity(t *testing.T) {
	run := func(arm func(fs *FS)) int64 {
		fs, _, _, _, _ := testFS()
		if _, err := fs.CreateFile("/data/a.bin", 1<<20); err != nil {
			t.Fatal(err)
		}
		arm(fs)
		return runSim(t, func(th *sim.Thread) {
			fd, err := fs.Open(th, "/data/a.bin", O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Pread(th, fd, nil, 1<<20, 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(th, fd); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(func(fs *FS) {})
	zero := run(func(fs *FS) { fs.InjectFaults(FaultPlan{}) })
	if zero != base {
		t.Fatalf("end times diverge: base %d, zero plan %d", base, zero)
	}
}

// TestNodeCachePeerDiesMidServe is the peer-serving fallback regression
// test: the serving peer's node state is dropped between the requester's
// cache lookup and the end of the transfer (DropNodeState mid-flight), so
// the serve is abandoned and the read falls back to the PFS — it must
// still complete, counted as a PeerAbort rather than a PeerHit.
func TestNodeCachePeerDiesMidServe(t *testing.T) {
	const fileSize = 64 << 20 // ~5ms peer transfer: a wide drop window

	build := func() (*FS, *storage.HDD, [2]*NodeCache) {
		fs, hdd, caches := nodeCacheFixture(t, 128<<20, true)
		if _, err := fs.CreateFile("/data/x.bin", fileSize); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.CreateFile("/data/warmup.bin", 1<<10); err != nil {
			t.Fatal(err)
		}
		return fs, hdd, caches
	}
	reader := func(fs *FS, caches [2]*NodeCache, preadStart *int64) func(th *sim.Thread) {
		return func(th *sim.Thread) {
			if _, err := caches[0].Fetch(th, "/data/x.bin"); err != nil {
				t.Fatal("fetch refused:", err)
			}
			v1 := fs.NodeView(1)
			warmOpen(t, th, v1, "/data/warmup.bin")
			fd, err := v1.Open(th, "/data/x.bin", O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			*preadStart = th.Now()
			if n, err := fs.Pread(th, fd, nil, fileSize, 0); err != nil || n != fileSize {
				t.Fatalf("peer-abandoned read = %d, %v; want full fallback read", n, err)
			}
			if err := fs.Close(th, fd); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Probe run: identical construction, no drop — find the deterministic
	// instant the peer serve begins.
	var preadStart int64
	{
		fs, _, caches := build()
		k := sim.NewKernel()
		k.Spawn("reader", reader(fs, caches, &preadStart))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if s := caches[1].Stats(); s.PeerHits != 1 || s.PeerAborts != 0 {
			t.Fatalf("probe run: stats = %+v, want one clean peer hit", s)
		}
	}

	// Real run: drop node 0 mid-transfer.
	fs, hdd, caches := build()
	var ignored int64
	k := sim.NewKernel()
	k.Spawn("reader", reader(fs, caches, &ignored))
	k.Spawn("dropper", func(th *sim.Thread) {
		th.Sleep(sim.Duration(preadStart) + sim.FromMicros(50))
		fs.DropNodeState(0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := caches[1].Stats()
	if s.PeerAborts != 1 {
		t.Fatalf("stats = %+v, want one abandoned peer serve", s)
	}
	if s.PeerHits != 0 {
		t.Fatalf("stats = %+v, want no completed peer hit", s)
	}
	if s.PFSReads == 0 {
		t.Fatalf("stats = %+v, want a PFS fallback read", s)
	}
	if hdd.Counters().BytesRead < fileSize {
		t.Fatalf("data device read %d bytes, want >= %d (fallback)", hdd.Counters().BytesRead, fileSize)
	}
}

// TestNodeCachePeerServeFaultInjection: PeerServeFailNth kills the serve
// before any payload moves; the requester pays the RPC latency and falls
// back to the PFS.
func TestNodeCachePeerServeFaultInjection(t *testing.T) {
	fs, hdd, caches := nodeCacheFixture(t, 10<<20, true)
	if _, err := fs.CreateFile("/data/x.bin", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateFile("/data/warmup.bin", 1<<10); err != nil {
		t.Fatal(err)
	}
	fs.InjectFaults(FaultPlan{PeerServeFailNth: 1})
	runSim(t, func(th *sim.Thread) {
		if _, err := caches[0].Fetch(th, "/data/x.bin"); err != nil {
			t.Fatal("fetch refused:", err)
		}
		v1 := fs.NodeView(1)
		warmOpen(t, th, v1, "/data/warmup.bin")
		before := hdd.Counters().ReadOps
		fd, err := v1.Open(th, "/data/x.bin", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := fs.Pread(th, fd, nil, 1<<20, 0); err != nil || n != 1<<20 {
			t.Fatalf("read = %d, %v", n, err)
		}
		if err := fs.Close(th, fd); err != nil {
			t.Fatal(err)
		}
		if hdd.Counters().ReadOps == before {
			t.Fatal("faulted peer serve did not fall back to the data device")
		}
	})
	if s := caches[1].Stats(); s.PeerAborts != 1 || s.PeerHits != 0 {
		t.Fatalf("stats = %+v, want one aborted serve and no peer hit", s)
	}
	if fs.TotalFaultStats().PeerServeFaults != 1 {
		t.Fatalf("fault stats = %+v, want one peer-serve fault", fs.TotalFaultStats())
	}
}
