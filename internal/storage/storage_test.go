package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// runOne executes fn in a single simulated thread and returns the final
// virtual time.
func runOne(t *testing.T, fn func(th *sim.Thread)) int64 {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("t", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k.Now()
}

func TestHDDSequentialReadBandwidth(t *testing.T) {
	d := NewHDD("sda", DefaultHDDParams())
	total := int64(64 * MiB)
	elapsed := runOne(t, func(th *sim.Thread) {
		pos := int64(0)
		for pos < total {
			d.Read(th, pos, 1*MiB)
			pos += 1 * MiB
		}
	})
	// First read pays a positioning cost... head starts at 0, so a fully
	// sequential scan is pure transfer.
	want := int64(float64(total) / 150e6 * 1e9)
	if abs64(elapsed-want) > want/100 {
		t.Fatalf("sequential 64MiB took %dns, want ~%dns", elapsed, want)
	}
	c := d.Counters()
	if c.ReadOps != 64 || c.BytesRead != total {
		t.Fatalf("counters = %+v", c)
	}
}

func TestHDDSeekPenaltyForFarReads(t *testing.T) {
	p := DefaultHDDParams()
	d := NewHDD("sda", p)
	seq := runOne(t, func(th *sim.Thread) {
		d.Read(th, 0, 1*MiB)
		d.Read(th, 1*MiB, 1*MiB) // continues at head: no seek
	})
	d2 := NewHDD("sdb", p)
	far := runOne(t, func(th *sim.Thread) {
		d2.Read(th, 0, 1*MiB)
		d2.Read(th, 500*GiB, 1*MiB) // far seek
	})
	if far <= seq+int64(p.MinSeek) {
		t.Fatalf("far=%d seq=%d: far read should pay a seek", far, seq)
	}
}

func TestHDDNearReadPaysTrackSkipOnly(t *testing.T) {
	p := DefaultHDDParams()
	d := NewHDD("sda", p)
	elapsed := runOne(t, func(th *sim.Thread) {
		d.Read(th, 0, 64*KiB)
		d.Read(th, 2*MiB, 64*KiB) // within NearDistance of head
	})
	transfer := int64(float64(128*KiB) / p.SeqBandwidth * 1e9)
	want := transfer + int64(p.TrackSkip+p.AvgRotational)
	if abs64(elapsed-want) > int64(sim.Microsecond) {
		t.Fatalf("elapsed %d, want %d", elapsed, want)
	}
}

func TestHDDInterleavedStreamsSlowerThanSequential(t *testing.T) {
	// The Fig 11a mechanism: two threads interleaving far-apart streams
	// must be slower than one thread reading both files back to back.
	p := DefaultHDDParams()
	const fileSize = 8 * 1024 * 1024
	const chunk = 1024 * 1024

	single := NewHDD("sda", p)
	seqTime := runOne(t, func(th *sim.Thread) {
		for off := int64(0); off < fileSize; off += chunk {
			single.Read(th, off, chunk)
		}
		base := int64(800) * GiB
		for off := int64(0); off < fileSize; off += chunk {
			single.Read(th, base+off, chunk)
		}
	})

	inter := NewHDD("sdb", p)
	k := sim.NewKernel()
	for i := 0; i < 2; i++ {
		base := int64(i) * 800 * GiB
		k.Spawn("reader", func(th *sim.Thread) {
			for off := int64(0); off < fileSize; off += chunk {
				inter.Read(th, base+off, chunk)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	interTime := k.Now()
	if interTime < seqTime*3/2 {
		t.Fatalf("interleaved=%d sequential=%d: expected heavy seek thrash", interTime, seqTime)
	}
}

func TestFlashLatencyOverlaps(t *testing.T) {
	p := DefaultOptaneParams()
	d := NewFlash("nvme0n1", p)
	// 8 concurrent small reads should take roughly one latency, not 8.
	k := sim.NewKernel()
	for i := 0; i < 8; i++ {
		k.Spawn("r", func(th *sim.Thread) { d.Read(th, 0, 4*KiB) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	serial := 8 * int64(p.Latency)
	if k.Now() >= serial {
		t.Fatalf("8 overlapped reads took %dns, want < %dns", k.Now(), serial)
	}
}

func TestFlashBandwidthShared(t *testing.T) {
	p := DefaultSSDParams()
	d := NewFlash("sdc", p)
	const n = 4
	const size = 16 * MiB
	k := sim.NewKernel()
	for i := 0; i < n; i++ {
		k.Spawn("r", func(th *sim.Thread) { d.Read(th, 0, size) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Aggregate transfer is bandwidth-bound regardless of concurrency.
	want := int64(float64(n*size)/p.Bandwidth*1e9) + int64(p.Latency)
	if abs64(k.Now()-want) > want/20 {
		t.Fatalf("4x16MiB took %dns, want ~%dns", k.Now(), want)
	}
}

func TestOptaneFasterThanHDDForSmallRandomReads(t *testing.T) {
	hdd := NewHDD("sda", DefaultHDDParams())
	opt := NewFlash("nvme0n1", DefaultOptaneParams())
	positions := make([]int64, 64)
	for i := range positions {
		positions[i] = int64(i*7919) % (400 * GiB)
	}
	hddTime := runOne(t, func(th *sim.Thread) {
		for _, p := range positions {
			hdd.Read(th, p, 64*KiB)
		}
	})
	optTime := runOne(t, func(th *sim.Thread) {
		for _, p := range positions {
			opt.Read(th, p, 64*KiB)
		}
	})
	if optTime*20 > hddTime {
		t.Fatalf("optane=%d hdd=%d: want >20x speedup on random small reads", optTime, hddTime)
	}
}

func TestLustreMetadataConcurrencyCap(t *testing.T) {
	p := DefaultLustreParams()
	d := NewLustre("lustre", p)
	const clients = 28
	const opsEach = 4
	k := sim.NewKernel()
	for i := 0; i < clients; i++ {
		k.Spawn("c", func(th *sim.Thread) {
			for j := 0; j < opsEach; j++ {
				d.Metadata(th, 0)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Total RPC work = clients*opsEach*MDSLatency spread over
	// MDSConcurrency servers.
	want := int64(clients) * opsEach * int64(p.MDSLatency) / int64(p.MDSConcurrency)
	if abs64(k.Now()-want) > want/10 {
		t.Fatalf("28 clients took %dns, want ~%dns (cap at %dx)", k.Now(), want, p.MDSConcurrency)
	}
}

func TestLustreSingleClientSeesFullLatency(t *testing.T) {
	p := DefaultLustreParams()
	d := NewLustre("lustre", p)
	elapsed := runOne(t, func(th *sim.Thread) {
		d.Metadata(th, 0)
		d.Read(th, 0, 88*KiB)
	})
	minWant := int64(p.MDSLatency + p.OSSLatency)
	if elapsed < minWant {
		t.Fatalf("elapsed %d < %d", elapsed, minWant)
	}
}

func TestCountersSub(t *testing.T) {
	a := Counters{ReadOps: 10, BytesRead: 1000}
	b := Counters{ReadOps: 4, BytesRead: 300}
	got := a.Sub(b)
	if got.ReadOps != 6 || got.BytesRead != 700 {
		t.Fatalf("Sub = %+v", got)
	}
}

// Property: device service time is monotonic in request size for a fixed
// access pattern (bigger reads never finish faster).
func TestPropertyServiceTimeMonotonicInSize(t *testing.T) {
	f := func(sz uint32) bool {
		small := int64(sz%(4*1024*1024)) + 1
		large := small * 2
		timeFor := func(n int64) int64 {
			d := NewHDD("sda", DefaultHDDParams())
			k := sim.NewKernel()
			k.Spawn("t", func(th *sim.Thread) {
				d.Read(th, 100*GiB, n)
			})
			if err := k.Run(); err != nil {
				return -1
			}
			return k.Now()
		}
		return timeFor(large) >= timeFor(small)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: counters account exactly for all issued operations.
func TestPropertyCountersExact(t *testing.T) {
	f := func(nReads, nWrites uint8) bool {
		d := NewFlash("sdc", DefaultSSDParams())
		k := sim.NewKernel()
		k.Spawn("t", func(th *sim.Thread) {
			for i := 0; i < int(nReads); i++ {
				d.Read(th, int64(i)*MiB, 4*KiB)
			}
			for i := 0; i < int(nWrites); i++ {
				d.Write(th, int64(i)*MiB, 8*KiB)
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		c := d.Counters()
		return c.ReadOps == int64(nReads) && c.WriteOps == int64(nWrites) &&
			c.BytesRead == int64(nReads)*4*KiB && c.BytesWritten == int64(nWrites)*8*KiB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
