package darshan

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// syntheticSnapshots builds two rank snapshots sharing one file and each
// owning a private one, with DXT segments that interleave in time.
func syntheticSnapshots() []*Log {
	mkPosix := func(id uint64, rank int, reads, bytes, maxByte int64, rstart, rend float64) PosixRecord {
		r := PosixRecord{ID: id, Rank: rank}
		r.Counters[POSIX_OPENS] = 1
		r.Counters[POSIX_READS] = reads
		r.Counters[POSIX_BYTES_READ] = bytes
		r.Counters[POSIX_MAX_BYTE_READ] = maxByte
		r.Counters[POSIX_SIZE_READ_100K_1M] = reads
		r.Counters[POSIX_ACCESS1_ACCESS] = bytes / reads
		r.Counters[POSIX_ACCESS1_COUNT] = reads
		r.FCounters[POSIX_F_READ_START_TIMESTAMP] = rstart
		r.FCounters[POSIX_F_READ_END_TIMESTAMP] = rend
		r.FCounters[POSIX_F_READ_TIME] = rend - rstart
		r.FCounters[POSIX_F_MAX_READ_TIME] = (rend - rstart) / 2
		return r
	}
	seg := func(off, length int64, start, end float64, tid int) Segment {
		return Segment{Offset: off, Length: length, Start: start, End: end, TID: tid}
	}
	rank0 := &Log{
		JobEnd: 10,
		NProcs: 1,
		Posix:  []PosixRecord{mkPosix(1, 0, 4, 400_000, 99_999, 0.5, 4.0), mkPosix(7, 0, 2, 200_000, 99_999, 1.0, 2.0)},
		Stdio: []StdioRecord{func() StdioRecord {
			r := StdioRecord{ID: 9, Rank: 0}
			r.Counters[STDIO_WRITES] = 3
			r.Counters[STDIO_BYTES_WRITTEN] = 300
			r.Counters[STDIO_MAX_BYTE_WRITTEN] = 120
			return r
		}()},
		DXT: []DXTRecord{{
			ID:       1,
			ReadSegs: []Segment{seg(0, 100_000, 0.5, 0.7, 1), seg(100_000, 100_000, 2.0, 2.2, 1)},
		}},
		Names: map[uint64]string{1: "/pfs/shared", 7: "/pfs/only0", 9: "/pfs/ckpt"},
	}
	rank1 := &Log{
		JobEnd: 12,
		NProcs: 1,
		Posix:  []PosixRecord{mkPosix(1, 1, 6, 600_000, 149_999, 0.25, 6.0), mkPosix(8, 1, 2, 200_000, 99_999, 3.0, 4.0)},
		Stdio: []StdioRecord{func() StdioRecord {
			r := StdioRecord{ID: 9, Rank: 1}
			r.Counters[STDIO_WRITES] = 5
			r.Counters[STDIO_BYTES_WRITTEN] = 500
			r.Counters[STDIO_MAX_BYTE_WRITTEN] = 90
			return r
		}()},
		DXT: []DXTRecord{{
			ID:       1,
			ReadSegs: []Segment{seg(0, 150_000, 0.25, 0.45, 1), seg(150_000, 150_000, 1.0, 1.3, 1)},
		}, {
			ID:        8,
			WriteSegs: []Segment{seg(0, 200_000, 2.0, 2.1, 2)},
		}},
		Names: map[uint64]string{1: "/pfs/shared", 8: "/pfs/only1"},
	}
	return []*Log{rank0, rank1}
}

func TestMergeCountersEqualPerRankSums(t *testing.T) {
	snaps := syntheticSnapshots()
	m := Merge(snaps)
	if m.NProcs != 2 {
		t.Fatalf("nprocs = %d", m.NProcs)
	}
	for c := PosixCounter(0); c < PosixNumCounters; c++ {
		if !PosixCounterAdditive(c) {
			continue
		}
		want := snaps[0].TotalPosix(c) + snaps[1].TotalPosix(c)
		if got := m.TotalPosix(c); got != want {
			t.Errorf("%v: merged %d, per-rank sum %d", c, got, want)
		}
	}
	for c := StdioCounter(0); c < StdioNumCounters; c++ {
		if !StdioCounterAdditive(c) {
			continue
		}
		want := snaps[0].TotalStdio(c) + snaps[1].TotalStdio(c)
		if got := m.TotalStdio(c); got != want {
			t.Errorf("%v: merged %d, per-rank sum %d", c, got, want)
		}
	}
}

func TestMergeWatermarksAndTimestamps(t *testing.T) {
	m := Merge(syntheticSnapshots())
	// Shared files get the -1 sentinel; single-rank files keep their
	// owning rank (Darshan's shared-record convention).
	wantRank := map[uint64]int{1: MergedRank, 7: 0, 8: 1}
	var shared *PosixRecord
	for i := range m.Posix {
		if m.Posix[i].ID == 1 {
			shared = &m.Posix[i]
		}
		if got := m.Posix[i].Rank; got != wantRank[m.Posix[i].ID] {
			t.Errorf("record %d rank = %d, want %d", m.Posix[i].ID, got, wantRank[m.Posix[i].ID])
		}
	}
	if shared == nil {
		t.Fatal("shared record missing")
	}
	if got := shared.Counters[POSIX_MAX_BYTE_READ]; got != 149_999 {
		t.Errorf("max byte read = %d, want max across ranks", got)
	}
	if got := shared.FCounters[POSIX_F_READ_START_TIMESTAMP]; got != 0.25 {
		t.Errorf("read start = %v, want earliest nonzero", got)
	}
	if got := shared.FCounters[POSIX_F_READ_END_TIMESTAMP]; got != 6.0 {
		t.Errorf("read end = %v, want latest", got)
	}
	if got := shared.FCounters[POSIX_F_READ_TIME]; got != 3.5+5.75 {
		t.Errorf("read time = %v, want per-rank sum", got)
	}
	// Re-ranked access table: rank1's 100_000-byte access (6 ops) beats
	// rank0's (4 ops); both are the same size so they combine to 10.
	if shared.Counters[POSIX_ACCESS1_ACCESS] != 100_000 || shared.Counters[POSIX_ACCESS1_COUNT] != 10 {
		t.Errorf("access1 = %d x %d, want 100000 x 10",
			shared.Counters[POSIX_ACCESS1_ACCESS], shared.Counters[POSIX_ACCESS1_COUNT])
	}
	var ckpt *StdioRecord
	for i := range m.Stdio {
		if m.Stdio[i].ID == 9 {
			ckpt = &m.Stdio[i]
		}
	}
	if ckpt == nil || ckpt.Counters[STDIO_MAX_BYTE_WRITTEN] != 120 {
		t.Errorf("stdio watermark merge wrong: %+v", ckpt)
	}
	if ckpt != nil && ckpt.Rank != MergedRank {
		t.Errorf("stdio shared record rank = %d, want %d", ckpt.Rank, MergedRank)
	}
	if m.JobEnd != 12 {
		t.Errorf("job end = %v", m.JobEnd)
	}
}

func TestMergeTimelineGloballyOrderedWithRankAttribution(t *testing.T) {
	m := Merge(syntheticSnapshots())
	if len(m.Timeline) != 5 {
		t.Fatalf("timeline has %d segments, want 5", len(m.Timeline))
	}
	for i := 1; i < len(m.Timeline); i++ {
		if m.Timeline[i].Start < m.Timeline[i-1].Start {
			t.Fatalf("timeline out of order at %d: %v after %v", i, m.Timeline[i].Start, m.Timeline[i-1].Start)
		}
	}
	// The first segment is rank 1's early read; ranks interleave.
	if m.Timeline[0].Rank != 1 || m.Timeline[0].Start != 0.25 {
		t.Fatalf("timeline[0] = rank %d @ %v", m.Timeline[0].Rank, m.Timeline[0].Start)
	}
	ranksSeen := map[int]bool{}
	for _, s := range m.Timeline {
		ranksSeen[s.Rank] = true
	}
	if !ranksSeen[0] || !ranksSeen[1] {
		t.Fatalf("timeline lost rank attribution: %v", ranksSeen)
	}
	// The write segment keeps its direction.
	var writes int
	for _, s := range m.Timeline {
		if s.Write {
			writes++
			if s.ID != 8 || s.Rank != 1 {
				t.Fatalf("write segment misattributed: %+v", s)
			}
		}
	}
	if writes != 1 {
		t.Fatalf("writes in timeline = %d", writes)
	}
}

// tieSnapshots builds two ranks whose combined access table is all count
// ties: the merged ACCESS1..4 ranking is decided purely by the explicit
// tie-break, and a fifth entry must be the one dropped.
func tieSnapshots() []*Log {
	mk := func(rank int, sizes ...int64) *Log {
		rec := PosixRecord{ID: 5, Rank: rank}
		for k, s := range sizes {
			rec.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(k)] = s
			rec.Counters[POSIX_ACCESS1_COUNT+PosixCounter(k)] = 2
		}
		return &Log{
			JobEnd: 1,
			NProcs: 1,
			Posix:  []PosixRecord{rec},
			Names:  map[uint64]string{5: "/pfs/tied"},
		}
	}
	// Five distinct sizes across the ranks, every one with count 2.
	return []*Log{mk(0, 4096, 100, 9000), mk(1, 512, 70000)}
}

// TestMergeAccessTieBreakExplicit pins the re-ranking order of the merged
// access table: count descending, count ties broken by ascending size
// (compareAccess). With all counts tied, ACCESS1..4 must be the four
// smallest sizes in ascending order, independent of which rank
// contributed them or any map iteration order.
func TestMergeAccessTieBreakExplicit(t *testing.T) {
	m := Merge(tieSnapshots())
	if len(m.Posix) != 1 {
		t.Fatalf("records = %d", len(m.Posix))
	}
	rec := &m.Posix[0]
	wantSizes := []int64{100, 512, 4096, 9000} // 70000 drops: same count, largest size
	for k, want := range wantSizes {
		if got := rec.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(k)]; got != want {
			t.Errorf("ACCESS%d size = %d, want %d", k+1, got, want)
		}
		if got := rec.Counters[POSIX_ACCESS1_COUNT+PosixCounter(k)]; got != 2 {
			t.Errorf("ACCESS%d count = %d, want 2", k+1, got)
		}
	}
}

// TestMergedLogByteStableAcrossMapOrder: merging the same inputs many
// times (each merge iterating Go's randomized map order differently) must
// serialize to the same bytes every time — the property the explicit
// tie-break exists to guarantee.
func TestMergedLogByteStableAcrossMapOrder(t *testing.T) {
	serialize := func(snaps []*Log) []byte {
		var buf bytes.Buffer
		if err := Merge(snaps).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, mk := range []func() []*Log{tieSnapshots, syntheticSnapshots} {
		want := serialize(mk())
		for i := 0; i < 32; i++ {
			if got := serialize(mk()); !bytes.Equal(got, want) {
				t.Fatalf("merged log bytes unstable at iteration %d", i)
			}
		}
	}
}

// stableTimelineOrder is the reference for Merge's timeline order:
// sort.SliceStable with the merge's comparator over the segments in input
// order. Merge's permutation sort must reproduce it exactly.
func stableTimelineOrder(perRank []*Log) []MergedSegment {
	var tl []MergedSegment
	for rank, snap := range perRank {
		if snap == nil {
			continue
		}
		for _, rec := range snap.DXT {
			for _, seg := range rec.ReadSegs {
				tl = append(tl, MergedSegment{Segment: seg, Rank: rank, ID: rec.ID})
			}
			for _, seg := range rec.WriteSegs {
				tl = append(tl, MergedSegment{Segment: seg, Rank: rank, ID: rec.ID, Write: true})
			}
		}
	}
	sort.SliceStable(tl, func(i, j int) bool {
		a, b := &tl[i], &tl[j]
		// cmp.Compare: NaN first and equal to itself, -0 equal to +0.
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c < 0
		}
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c < 0
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return !a.Write && b.Write
	})
	return tl
}

// randomTimelineSnapshots builds up to 8 ranks (some nil) whose DXT runs
// are completion-ordered, not start-ordered, on a coarse time grid so
// starts and ends collide, with deliberate full-key twins: segments equal
// on start, end, rank, file, offset and direction that differ only in
// length or thread, whose relative order only stability decides.
//
// With special set, a quarter of the segments take their start and end
// from specialTimes instead, which no log holds but Merge must still
// order like cmp.Compare: NaN first, -0 equal to +0, the infinities at
// the ends.
func randomTimelineSnapshots(rng *rand.Rand, special bool) []*Log {
	snaps := make([]*Log, 1+rng.Intn(8))
	for r := range snaps {
		if rng.Intn(6) == 0 {
			continue
		}
		snap := &Log{JobEnd: 10, NProcs: 1}
		for _, f := range rng.Perm(6)[:1+rng.Intn(6)] {
			rec := DXTRecord{ID: uint64(f + 1)}
			for _, segs := range []*[]Segment{&rec.ReadSegs, &rec.WriteSegs} {
				for n := rng.Intn(30); n > 0; n-- {
					start := float64(rng.Intn(16)) / 4
					end := start + float64(rng.Intn(3))/4
					if special && rng.Intn(4) == 0 {
						start = specialTimes[rng.Intn(len(specialTimes))]
						end = specialTimes[rng.Intn(len(specialTimes))]
					}
					s := Segment{
						Offset: int64(rng.Intn(3)) << 12, Length: int64(rng.Intn(3)) << 12,
						Start: start, End: end, TID: rng.Intn(3),
					}
					*segs = append(*segs, s)
					if rng.Intn(3) == 0 {
						twin := s
						twin.Length++
						twin.TID++
						*segs = append(*segs, twin)
					}
				}
				sort.SliceStable(*segs, func(i, j int) bool { return (*segs)[i].End < (*segs)[j].End })
			}
			snap.DXT = append(snap.DXT, rec)
		}
		snaps[r] = snap
	}
	return snaps
}

var specialTimes = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, 1.5, -2}

// sameTimeline reports whether a and b hold the same segments in the same
// order, comparing times bit for bit, so NaN equals NaN and -0 is not +0.
func sameTimeline(a, b []MergedSegment) bool {
	return slices.EqualFunc(a, b, func(x, y MergedSegment) bool {
		fx, fy := x, y
		fx.Start, fx.End, fy.Start, fy.End = 0, 0, 0, 0
		return fx == fy &&
			math.Float64bits(x.Start) == math.Float64bits(y.Start) &&
			math.Float64bits(x.End) == math.Float64bits(y.End)
	})
}

func TestMergeTimelineMatchesStableOrder(t *testing.T) {
	twins := 0
	for seed := int64(1); seed <= 600; seed++ {
		snaps := randomTimelineSnapshots(rand.New(rand.NewSource(seed)), seed > 300)
		want := stableTimelineOrder(snaps)
		got := Merge(snaps).Timeline
		if !sameTimeline(got, want) {
			t.Fatalf("seed %d: timeline order differs from the stable reference", seed)
		}
		for i := 1; i < len(want); i++ {
			a, b := want[i-1], want[i]
			if a.Start == b.Start && a.End == b.End && a.Rank == b.Rank && a.ID == b.ID &&
				a.Offset == b.Offset && a.Write == b.Write && a.Segment != b.Segment {
				twins++
			}
		}
	}
	if twins == 0 {
		t.Fatal("no full-key ties generated: the stability half of the order went untested")
	}
}

// TestMergeWithoutDXTRoundTrips: a merge of DXT-free snapshots keeps a nil
// timeline, so it equals its own log round trip.
func TestMergeWithoutDXTRoundTrips(t *testing.T) {
	snaps := syntheticSnapshots()
	for _, s := range snaps {
		s.DXT = nil
	}
	m := Merge(snaps)
	if m.Timeline != nil {
		t.Fatalf("DXT-free merge has a non-nil timeline of %d segments", len(m.Timeline))
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("DXT-free merged log did not round-trip:\n got %+v\nwant %+v", got, m)
	}
}

// TestMergeNilRankSlotRoundTrips: a nil slot is a rank without records.
// NProcs counts rank slots, so the records and segments of the rank after
// the gap stay in range and the merged log reads back as written.
func TestMergeNilRankSlotRoundTrips(t *testing.T) {
	snaps := syntheticSnapshots()
	m := Merge([]*Log{snaps[0], nil, snaps[1]})
	if m.NProcs != 3 {
		t.Fatalf("nprocs = %d, want 3 rank slots", m.NProcs)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("merged log with a nil rank slot did not round-trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestMergeDeterministic(t *testing.T) {
	a := Merge(syntheticSnapshots())
	b := Merge(syntheticSnapshots())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merge is not deterministic")
	}
	// Record order is first-appearance (rank-major), independent of map
	// iteration order.
	var ids []uint64
	for i := range a.Posix {
		ids = append(ids, a.Posix[i].ID)
	}
	if !reflect.DeepEqual(ids, []uint64{1, 7, 8}) {
		t.Fatalf("posix record order = %v", ids)
	}
	// Name union covers every record.
	for _, id := range ids {
		if _, ok := a.Names[id]; !ok {
			t.Fatalf("name table missing id %d", id)
		}
	}
	sorted := sort.SliceIsSorted(a.Timeline, func(i, j int) bool {
		return a.Timeline[i].Start < a.Timeline[j].Start
	})
	if !sorted {
		t.Fatal("timeline not sorted")
	}
}
