package darshan

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// The DXT timeline as an oracle for the read-side counters: recordRead
// appends a read's DXT segment last, under the same lock as the counter
// update, so a record's read counters are a pure function of its read
// segments in stored order. replayReads recomputes them from the segments
// alone; any disagreement is a bug in one of the two implementations.

// replayedReadCounters and replayedReadFCounters are the 27 read-side
// counters a single-process record's read segments determine. The
// simulated POSIX layer counts only reads in ACCESS1..4.
var (
	replayedReadCounters = []PosixCounter{
		POSIX_READS, POSIX_BYTES_READ, POSIX_MAX_BYTE_READ, POSIX_SEQ_READS, POSIX_CONSEC_READS,
		POSIX_SIZE_READ_0_100, POSIX_SIZE_READ_100_1K, POSIX_SIZE_READ_1K_10K, POSIX_SIZE_READ_10K_100K,
		POSIX_SIZE_READ_100K_1M, POSIX_SIZE_READ_1M_4M, POSIX_SIZE_READ_4M_10M, POSIX_SIZE_READ_10M_100M,
		POSIX_SIZE_READ_100M_1G, POSIX_SIZE_READ_1G_PLUS,
		POSIX_ACCESS1_ACCESS, POSIX_ACCESS2_ACCESS, POSIX_ACCESS3_ACCESS, POSIX_ACCESS4_ACCESS,
		POSIX_ACCESS1_COUNT, POSIX_ACCESS2_COUNT, POSIX_ACCESS3_COUNT, POSIX_ACCESS4_COUNT,
	}
	replayedReadFCounters = []PosixFCounter{
		POSIX_F_READ_START_TIMESTAMP, POSIX_F_READ_END_TIMESTAMP, POSIX_F_READ_TIME, POSIX_F_MAX_READ_TIME,
	}
)

// replayReads recomputes a POSIX record's read-side counters from its DXT
// read segments in stored order, starting from Darshan's initial state:
// no bytes read, last byte read 0 (so a first read at offset > 0 counts
// as sequential and one at offset 1 as consecutive). ACCESS1..4 are the
// four most frequent read lengths, most frequent first and the smaller
// length first on a tie, with their counts.
func replayReads(segs []Segment) (rec PosixRecord) {
	var lastByteRead int64
	lengths := make(map[int64]int64)
	for _, s := range segs {
		lengths[s.Length]++
		rec.Counters[POSIX_READS]++
		rec.Counters[readSizeBucket(s.Length)]++
		if s.Offset > lastByteRead {
			rec.Counters[POSIX_SEQ_READS]++
		}
		if s.Offset == lastByteRead+1 {
			rec.Counters[POSIX_CONSEC_READS]++
		}
		lastByteRead = s.Offset + s.Length - 1
		rec.Counters[POSIX_BYTES_READ] += s.Length
		rec.Counters[POSIX_MAX_BYTE_READ] = max(rec.Counters[POSIX_MAX_BYTE_READ], lastByteRead)
		if rec.FCounters[POSIX_F_READ_START_TIMESTAMP] == 0 {
			rec.FCounters[POSIX_F_READ_START_TIMESTAMP] = s.Start
		}
		rec.FCounters[POSIX_F_READ_END_TIMESTAMP] = s.End
		rec.FCounters[POSIX_F_READ_TIME] += s.End - s.Start
		rec.FCounters[POSIX_F_MAX_READ_TIME] = max(rec.FCounters[POSIX_F_MAX_READ_TIME], s.End-s.Start)
	}
	byCount := make([]int64, 0, len(lengths))
	for n := range lengths {
		byCount = append(byCount, n)
	}
	sort.Slice(byCount, func(i, j int) bool {
		a, b := byCount[i], byCount[j]
		return lengths[a] > lengths[b] || lengths[a] == lengths[b] && a < b
	})
	for i, n := range byCount[:min(4, len(byCount))] {
		rec.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(i)] = n
		rec.Counters[POSIX_ACCESS1_COUNT+PosixCounter(i)] = lengths[n]
	}
	return rec
}

// checkReadReplay compares every POSIX record of l against the replay of
// its DXT read segments and returns how many records it checked. A single
// log is checked on all 27 read-side counters, exactly (floats bit for
// bit). A merged log's timeline is in global start order, not per-record
// call order, so only the order-free READS, BYTES_READ and MAX_BYTE_READ
// are checked there (a merge's ACCESS1..4 fold each rank's top four, so
// they need not be the timeline's). Records with dropped segments (a
// merged log with any) are skipped, and so are ids that also have a STDIO
// record: with DXTStdio on, their DXT segments mix stream reads into the
// POSIX record's trace.
func checkReadReplay(l *Log) (checked int, err error) {
	skip := make(map[uint64]bool, len(l.Stdio))
	for i := range l.Stdio {
		skip[l.Stdio[i].ID] = true
	}
	segs := make(map[uint64][]Segment)
	counters, fcounters := replayedReadCounters, replayedReadFCounters
	if l.Merged {
		if l.DroppedSegments > 0 {
			return 0, nil
		}
		for i := range l.Timeline {
			if s := &l.Timeline[i]; !s.Write {
				segs[s.ID] = append(segs[s.ID], s.Segment)
			}
		}
		counters, fcounters = []PosixCounter{POSIX_READS, POSIX_BYTES_READ, POSIX_MAX_BYTE_READ}, nil
	} else {
		for i := range l.DXT {
			if r := &l.DXT[i]; r.Dropped > 0 {
				skip[r.ID] = true
			} else {
				segs[r.ID] = r.ReadSegs
			}
		}
	}
	for i := range l.Posix {
		rec := &l.Posix[i]
		if skip[rec.ID] {
			continue
		}
		want := replayReads(segs[rec.ID])
		for _, c := range counters {
			if rec.Counters[c] != want.Counters[c] {
				return checked, fmt.Errorf("record %s: %s = %d, DXT replay gives %d",
					l.Names[rec.ID], posixCounters[c].name, rec.Counters[c], want.Counters[c])
			}
		}
		for _, c := range fcounters {
			if rec.FCounters[c] != want.FCounters[c] {
				return checked, fmt.Errorf("record %s: %s = %v, DXT replay gives %v",
					l.Names[rec.ID], posixFCounters[c].name, rec.FCounters[c], want.FCounters[c])
			}
		}
		checked++
	}
	return checked, nil
}

// mustReplay fails t unless every checkable record of l matches its DXT
// replay and at least one record was checked.
func mustReplay(t *testing.T, what string, l *Log) {
	t.Helper()
	checked, err := checkReadReplay(l)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if checked == 0 {
		t.Fatalf("%s: no record was checked against its DXT replay", what)
	}
}

// rankExports runs ranks simulated processes over their own runtimes and
// returns their job-end exports. Every rank reads a shared manifest and
// its own shard TF-style, issues out-of-order, repeated and consecutive
// preads on a private file, so the sequential/consecutive classification
// sees every case, and writes a shared checkpoint through STDIO.
func rankExports(t *testing.T, ranks int) []*Log {
	t.Helper()
	out := make([]*Log, ranks)
	for rank := range out {
		r := newRig(DefaultConfig())
		r.rt.SetRank(rank)
		r.fs.CreateFile("/data/manifest", 3000)
		shard := fmt.Sprintf("/data/shard%d", rank)
		r.fs.CreateFile(shard, int64(1+rank)<<20+4096)
		private := fmt.Sprintf("/data/private%d", rank)
		r.fs.CreateFile(private, 64<<10)
		r.run(t, func(th *sim.Thread) {
			readWholeFileTFStyle(th, r.c, "/data/manifest", 1<<20)
			readWholeFileTFStyle(th, r.c, shard, 512<<10)
			fd, err := r.c.Open(th, private, vfs.O_RDONLY)
			if err != nil {
				t.Error(err)
				return
			}
			for _, off := range []int64{1, 4096, 4096, 0, 8192, 100, 101} {
				if _, err := r.c.Pread(th, fd, nil, 100, off); err != nil {
					t.Error(err)
				}
			}
			r.c.Close(th, fd)
			st, err := r.c.Fopen(th, "/data/ckpt", "w")
			if err != nil {
				t.Error(err)
				return
			}
			r.c.Fwrite(th, st, make([]byte, 8192))
			r.c.Fclose(th, st)
		})
		out[rank] = r.rt.Export(r.k.Now())
	}
	return out
}

// TestDXTReplayMatchesCounters checks the replay oracle on runtime
// exports, their merge, the committed single-process reference log and
// the experiments' merged reference logs (four ranks reading, and a
// failover run with STDIO checkpoints).
func TestDXTReplayMatchesCounters(t *testing.T) {
	perRank := rankExports(t, 3)
	for rank, l := range perRank {
		mustReplay(t, fmt.Sprintf("rank %d export", rank), l)
	}
	merged := Merge(perRank)
	if merged.DroppedSegments != 0 {
		t.Fatalf("merge dropped %d segments", merged.DroppedSegments)
	}
	mustReplay(t, "merge", merged)

	for _, path := range []string{
		filepath.Join("testdata", singleRefLog),
		filepath.Join("..", "experiments", "testdata", "merged4.darshan.log"),
		filepath.Join("..", "experiments", "testdata", "failover2.darshan.log"),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ReadLog(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		mustReplay(t, path, ref)
	}
}

// TestDXTReplayDetectsCounterDrift: the oracle is not vacuous — a record
// whose counters disagree with its segments in any one checked counter is
// reported.
func TestDXTReplayDetectsCounterDrift(t *testing.T) {
	l := rankExports(t, 1)[0]
	rec := &l.Posix[0]
	for _, c := range replayedReadCounters {
		rec.Counters[c]++
		if _, err := checkReadReplay(l); err == nil {
			t.Errorf("%s off by one went unnoticed", posixCounters[c].name)
		}
		rec.Counters[c]--
	}
	for _, c := range replayedReadFCounters {
		saved := rec.FCounters[c]
		rec.FCounters[c] += 1e-9
		if _, err := checkReadReplay(l); err == nil {
			t.Errorf("%s off by 1 ns went unnoticed", posixFCounters[c].name)
		}
		rec.FCounters[c] = saved
	}
	mustReplay(t, "restored export", l)
}
