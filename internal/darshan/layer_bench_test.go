package darshan

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// timelineSnapshots builds ranks per-rank snapshots over the same files
// shared files with about segs DXT segments in total. Like a data-parallel
// epoch, each rank walks the files in its own order with read times rising
// through the job, and each record's run is in completion order (the order
// DXT appends concurrent readers' segments in), not start order.
func timelineSnapshots(ranks, files, segs int) []*Log {
	rng := rand.New(rand.NewSource(1))
	perRecord := max(1, segs/(ranks*files))
	snaps := make([]*Log, ranks)
	for r := range snaps {
		snap := &Log{JobEnd: float64(files + 1), NProcs: 1, Names: make(map[uint64]string, files)}
		for i, f := range rng.Perm(files) {
			id := uint64(f + 1)
			snap.Names[id] = fmt.Sprintf("/pfs/train/file-%05d", f)
			rec := PosixRecord{ID: id, Rank: r}
			rec.Counters[POSIX_OPENS] = 1
			rec.Counters[POSIX_READS] = int64(perRecord)
			rec.Counters[POSIX_BYTES_READ] = int64(perRecord) << 16
			rec.Counters[POSIX_ACCESS1_ACCESS] = 1 << 16
			rec.Counters[POSIX_ACCESS1_COUNT] = int64(perRecord)
			snap.Posix = append(snap.Posix, rec)

			dxt := DXTRecord{ID: id, ReadSegs: make([]Segment, perRecord)}
			for j := range dxt.ReadSegs {
				start := float64(i) + rng.Float64()
				dxt.ReadSegs[j] = Segment{
					Offset: int64(j) << 16, Length: 1 << 16,
					Start: start, End: start + rng.Float64()/64,
					TID: 1 + rng.Intn(4),
				}
			}
			slices.SortStableFunc(dxt.ReadSegs, func(a, b Segment) int { return cmp.Compare(a.End, b.End) })
			snap.DXT = append(snap.DXT, dxt)
		}
		snaps[r] = snap
	}
	return snaps
}

// The layer microbenchmarks run an 8-rank merge of about 100k segments,
// the size of the cluster workloads' merged timelines. Merge and the
// decoder also run over benchClusterFiles files, as many as the cluster
// workloads merge: at 2,000 files the record slices are too small for
// their growth to show.
const (
	benchRanks        = 8
	benchFiles        = 2000
	benchClusterFiles = 32_000
	benchSegs         = 100_000
)

// benchFileCounts runs f once per file count as a sub-benchmark.
func benchFileCounts(b *testing.B, f func(b *testing.B, snaps []*Log)) {
	for _, files := range []int{benchFiles, benchClusterFiles} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			f(b, timelineSnapshots(benchRanks, files, benchSegs))
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	benchFileCounts(b, func(b *testing.B, snaps []*Log) {
		b.ReportAllocs()
		for b.Loop() {
			Merge(snaps)
		}
	})
}

func BenchmarkWriteMergedLog(b *testing.B) {
	m := Merge(timelineSnapshots(benchRanks, benchFiles, benchSegs))
	b.ReportAllocs()
	defer cpuPerOp(b)()
	for b.Loop() {
		if err := m.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// cpuPerOp starts counting the process's CPU time, user plus system over
// every thread; the func it returns reports it per iteration as
// cpu-ms/op, so the gzip writer's workers and the gzip reader's inflate
// worker show next to ns/op.
func cpuPerOp(b *testing.B) func() {
	start := processCPU(b)
	return func() {
		b.ReportMetric(float64(processCPU(b)-start)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
	}
}

func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func BenchmarkReadMergedLog(b *testing.B) {
	benchFileCounts(b, func(b *testing.B, snaps []*Log) {
		var buf bytes.Buffer
		if err := Merge(snaps).Write(&buf); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		defer cpuPerOp(b)()
		for b.Loop() {
			if _, err := ReadLog(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wrappedPreadWindow is how many segments BenchmarkWrappedPread lets a DXT
// record hold before truncating it, so every pread appends a segment
// (rather than counting a drop past MaxDXTSegsPerRecord) and the trace
// stays a fixed size however large b.N grows.
const wrappedPreadWindow = 1 << 12

// BenchmarkWrappedPread measures one instrumented pread on one sim
// thread: the call through the patched GOT slot, wrapPread's timing and
// record update under the core lock, the DXT append, and the count-only
// VFS read beneath them.
func BenchmarkWrappedPread(b *testing.B) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/file", 1<<20)
	id := RecordID("/data/file")
	r.k.Spawn("reader", func(th *sim.Thread) {
		fd, err := r.c.Open(th, "/data/file", vfs.O_RDONLY)
		if err != nil {
			panic(err)
		}
		// One read outside the timer creates the file's DXT record.
		if _, err := r.c.Pread(th, fd, nil, 4096, 0); err != nil {
			panic(err)
		}
		dxt := r.rt.DXT.records[id]
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if len(dxt.ReadSegs) == wrappedPreadWindow {
				dxt.ReadSegs = dxt.ReadSegs[:0]
			}
			if _, err := r.c.Pread(th, fd, nil, 4096, int64(i%256)*4096); err != nil {
				panic(err)
			}
		}
	})
	if err := r.k.Run(); err != nil {
		b.Fatal(err)
	}
	if got := r.rt.Posix.records[id].Counters[POSIX_READS]; got != int64(b.N)+1 {
		b.Fatalf("POSIX_READS = %d after %d preads", got, b.N+1)
	}
	if d := r.rt.DXT.records[id].Dropped; d != 0 {
		b.Fatalf("%d DXT segments dropped", d)
	}
}
