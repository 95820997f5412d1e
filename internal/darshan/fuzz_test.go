package darshan

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzSeedLogs builds one valid log of each kind for the seed corpus.
func fuzzSeedLogs(f *testing.F) (single, merged []byte) {
	f.Helper()
	// A hand-built runtime avoids running the simulator inside the fuzz
	// harness: one POSIX record, one STDIO record, DXT segments.
	snaps := syntheticSnapshots()
	var sb bytes.Buffer
	if err := snaps[0].Write(&sb); err != nil {
		f.Fatal(err)
	}
	var mb bytes.Buffer
	if err := Merge(snaps).Write(&mb); err != nil {
		f.Fatal(err)
	}
	return sb.Bytes(), mb.Bytes()
}

// FuzzReadLog drives the decoder with arbitrary bytes: it must never
// panic, must reject malformed input with ErrBadLog (truncated headers,
// corrupt record lengths, out-of-range ranks), and on success the decoded
// log must survive a write/read round trip intact.
func FuzzReadLog(f *testing.F) {
	single, merged := fuzzSeedLogs(f)
	f.Add(single)
	f.Add(merged)
	// Truncations at structurally interesting places: mid-magic, mid
	// version, mid gzip stream, and just short of the end.
	for _, b := range [][]byte{single, merged} {
		for _, cut := range []int{0, 4, 8, 10, 13, len(b) / 2, len(b) - 2} {
			if cut >= 0 && cut <= len(b) {
				f.Add(b[:cut:cut])
			}
		}
	}
	// Corruptions: version, kind region, stream middle, stream tail.
	for _, b := range [][]byte{single, merged} {
		for _, i := range []int{8, 12, 14, len(b) / 2, len(b) - 5} {
			if i >= 0 && i < len(b) {
				c := append([]byte(nil), b...)
				c[i] ^= 0xFF
				f.Add(c)
			}
		}
	}
	f.Add([]byte("DARSHAN\x00 but not really"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadLog) {
				t.Fatalf("decode error does not wrap ErrBadLog: %v", err)
			}
			return
		}
		// Structural invariants the decoder promises.
		if log.NProcs < 1 || (!log.Merged && log.NProcs != 1) {
			t.Fatalf("accepted nprocs %d (merged %v)", log.NProcs, log.Merged)
		}
		for i := range log.Posix {
			if r := log.Posix[i].Rank; r < MergedRank || (r == MergedRank && !log.Merged) {
				t.Fatalf("accepted posix rank %d (merged %v)", r, log.Merged)
			}
		}
		for i := range log.Timeline {
			if r := log.Timeline[i].Rank; r < 0 || r >= log.NProcs {
				t.Fatalf("accepted timeline rank %d with nprocs %d", r, log.NProcs)
			}
		}
		// Round trip: rewriting the decoded log and reading it back must
		// reproduce the same structure.
		var buf bytes.Buffer
		if err := log.Write(&buf); err != nil {
			t.Fatalf("rewrite failed on accepted log: %v", err)
		}
		again, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reread failed on rewritten log: %v", err)
		}
		if !reflect.DeepEqual(log, again) {
			t.Fatal("write/read round trip diverged")
		}
	})
}

// foldSnapshots builds three random snapshots over four shared files.
// Float counters are multiples of 1/64 below 64, so their sums are exact
// in any order, and each file draws its access sizes from four fixed
// ones, so a nested fold never truncates its ACCESS1..4 table.
func foldSnapshots(rng *rand.Rand) []*Log {
	const files = 4
	floats := func(fs []float64) {
		for c := range fs {
			if rng.Intn(3) > 0 { // a third stay 0: never happened
				fs[c] = float64(rng.Intn(64*64)) / 64
			}
		}
	}
	snaps := make([]*Log, 3)
	for r := range snaps {
		s := &Log{
			JobEnd: float64(rng.Intn(64)),
			NProcs: 1,
			Names:  make(map[uint64]string),
		}
		for id := uint64(1); id <= files; id++ {
			if rng.Intn(4) == 0 {
				continue
			}
			s.Names[id] = fmt.Sprintf("/pfs/f%d", id)
			p := PosixRecord{ID: id, Rank: r}
			for c := range p.Counters {
				p.Counters[c] = rng.Int63n(1000)
			}
			for k, j := range rng.Perm(accessInlineCap) {
				size, count := int64(100*id)+int64(j), int64(0)
				if rng.Intn(3) > 0 {
					count = 1 + rng.Int63n(9)
				}
				p.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(k)] = size
				p.Counters[POSIX_ACCESS1_COUNT+PosixCounter(k)] = count
			}
			floats(p.FCounters[:])
			s.Posix = append(s.Posix, p)

			st := StdioRecord{ID: id, Rank: r}
			for c := range st.Counters {
				st.Counters[c] = rng.Int63n(1000)
			}
			floats(st.FCounters[:])
			s.Stdio = append(s.Stdio, st)

			d := DXTRecord{ID: id, Dropped: rng.Int63n(3)}
			for range rng.Intn(3) {
				d.ReadSegs = append(d.ReadSegs, Segment{Offset: rng.Int63n(1000), Length: rng.Int63n(100), Start: float64(rng.Intn(64)), TID: r})
			}
			for range rng.Intn(2) {
				d.WriteSegs = append(d.WriteSegs, Segment{Offset: rng.Int63n(1000), Length: rng.Int63n(100), Start: float64(rng.Intn(64)), TID: r})
			}
			s.DXT = append(s.DXT, d)
		}
		snaps[r] = s
	}
	return snaps
}

// FuzzFoldOrderIndependent checks that the counter fold is order
// independent: every permutation of the ranks handed to Merge gives the
// same per-file counters, and CombineSnapshots is associative.
func FuzzFoldOrderIndependent(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		snaps := foldSnapshots(rand.New(rand.NewSource(seed)))
		type fileCounters struct {
			posix  [PosixNumCounters]int64
			posixF [PosixNumFCounters]float64
			stdio  [StdioNumCounters]int64
			stdioF [StdioNumFCounters]float64
		}
		perFile := func(m *Log) map[uint64]fileCounters {
			out := make(map[uint64]fileCounters)
			for _, r := range m.Posix {
				fc := out[r.ID]
				fc.posix, fc.posixF = r.Counters, r.FCounters
				out[r.ID] = fc
			}
			for _, r := range m.Stdio {
				fc := out[r.ID]
				fc.stdio, fc.stdioF = r.Counters, r.FCounters
				out[r.ID] = fc
			}
			return out
		}
		want := perFile(Merge(snaps))
		for _, perm := range [][3]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			got := perFile(Merge([]*Log{snaps[perm[0]], snaps[perm[1]], snaps[perm[2]]}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merge order %v changes per-file counters:\n got %v\nwant %v", perm, got, want)
			}
		}

		a, b, c := snaps[0], snaps[1], snaps[2]
		flat := CombineSnapshots(7, a, b, c)
		nested := CombineSnapshots(7, CombineSnapshots(7, a, b), c)
		if !reflect.DeepEqual(flat, nested) {
			t.Fatalf("combine is not associative:\n flat   %+v\n nested %+v", flat, nested)
		}
	})
}
