package darshan

import (
	"cmp"
	"maps"
	"math"
	"slices"
)

// This file implements the cross-rank log merger of the distributed
// scenario: N ranks each run their own Runtime over a shared parallel file
// system, export per-rank record sets at job end, and Merge reduces them
// into one aggregate view — per-file counters summed across ranks (the
// reduction Darshan's MPI build performs at shutdown) plus a globally
// time-ordered DXT timeline with rank attribution.

// MergedRank is the Rank value of records touched by more than one rank,
// Darshan's shared-record convention; records a single rank touched keep
// that rank through the merge.
const MergedRank = -1

// MergedSegment is one DXT trace segment with its owning rank and file.
type MergedSegment struct {
	Segment
	Rank  int
	ID    uint64
	Write bool
}

// PosixCounterAdditive reports whether c aggregates across ranks by
// summation (kindSum in posixCounters).
func PosixCounterAdditive(c PosixCounter) bool { return posixCounters[c].kind == kindSum }

// StdioCounterAdditive reports whether c aggregates across ranks by
// summation (kindSum in stdioCounters).
func StdioCounterAdditive(c StdioCounter) bool { return stdioCounters[c].kind == kindSum }

// foldPosixCounters folds src's POSIX counters into dst by their kinds,
// adding src's ACCESS1..4 entries to dst's access table for the combined
// re-rank in recordFold.finish.
func foldPosixCounters(dst *PosixRecord, access *accessTable, src *PosixRecord) {
	fold(dst.Counters[:], src.Counters[:], posixCounters[:])
	fold(dst.FCounters[:], src.FCounters[:], posixFCounters[:])
	for k := range PosixCounter(4) {
		if count := src.Counters[POSIX_ACCESS1_COUNT+k]; count > 0 {
			access.bump(src.Counters[POSIX_ACCESS1_ACCESS+k], count)
		}
	}
}

// foldStdioCounters folds src's STDIO counters into dst by their kinds.
func foldStdioCounters(dst, src *StdioRecord) {
	fold(dst.Counters[:], src.Counters[:], stdioCounters[:])
	fold(dst.FCounters[:], src.FCounters[:], stdioFCounters[:])
}

// recordFold reduces the module records of many logs to one record per
// file id, ordered by first appearance (log order, then record order).
// Merge feeds it one log per rank, CombineSnapshots one per process
// incarnation of a single rank. The accumulator is a Log: the latest job
// end, the union of the name tables and the folded POSIX and STDIO
// records; the header and DXT are left to the caller.
type recordFold struct {
	*Log
	// access holds each folded POSIX record's combined access table,
	// index for index with Posix.
	access []accessTable
	// posixIdx and stdioIdx map a file id to its record's index, assigned
	// in first-appearance order before any record is folded.
	posixIdx map[uint64]int
	stdioIdx map[uint64]int
}

// newRecordFold sizes a fold of logs (nil entries skipped) before any
// record is folded: it indexes the union of the record ids in
// first-appearance order and allocates Posix and Stdio once at the size of
// that union. A module no log has records of stays nil, as the log decoder
// leaves an empty block, so folds and decoded logs DeepEqual. The index
// maps are sized by the largest per-log count, the least their union can
// hold; the name table, once they are built, by the larger of the largest
// per-log name count and the indexed POSIX and STDIO ids, which a log's
// names cover.
func newRecordFold(logs []*Log) *recordFold {
	var nNames, nPosix, nStdio int
	for _, l := range logs {
		if l != nil {
			nNames = max(nNames, len(l.Names))
			nPosix = max(nPosix, len(l.Posix))
			nStdio = max(nStdio, len(l.Stdio))
		}
	}
	f := &recordFold{
		Log:      &Log{},
		posixIdx: make(map[uint64]int, nPosix),
		stdioIdx: make(map[uint64]int, nStdio),
	}
	for _, l := range logs {
		if l == nil {
			continue
		}
		for i := range l.Posix {
			if _, seen := f.posixIdx[l.Posix[i].ID]; !seen {
				f.posixIdx[l.Posix[i].ID] = len(f.posixIdx)
			}
		}
		for i := range l.Stdio {
			if _, seen := f.stdioIdx[l.Stdio[i].ID]; !seen {
				f.stdioIdx[l.Stdio[i].ID] = len(f.stdioIdx)
			}
		}
	}
	f.Names = make(map[uint64]string, max(nNames, len(f.posixIdx)+len(f.stdioIdx)))
	if n := len(f.posixIdx); n > 0 {
		f.Posix = make([]PosixRecord, 0, n)
		f.access = make([]accessTable, n)
	}
	if n := len(f.stdioIdx); n > 0 {
		f.Stdio = make([]StdioRecord, 0, n)
	}
	return f
}

// add folds l, one of the logs the fold was sized for, in as rank's, in
// the order they were given to newRecordFold. A file's record is created
// where its id was first indexed, stamped with the first rank that touches
// it, and becomes MergedRank once another rank does.
func (f *recordFold) add(rank int, l *Log) {
	f.JobEnd = max(f.JobEnd, l.JobEnd)
	maps.Copy(f.Names, l.Names)
	for i := range l.Posix {
		src := &l.Posix[i]
		j := f.posixIdx[src.ID]
		if j == len(f.Posix) {
			f.Posix = append(f.Posix, PosixRecord{ID: src.ID, Rank: rank})
		}
		dst := &f.Posix[j]
		if dst.Rank != rank {
			dst.Rank = MergedRank
		}
		foldPosixCounters(dst, &f.access[j], src)
	}
	for i := range l.Stdio {
		src := &l.Stdio[i]
		j := f.stdioIdx[src.ID]
		if j == len(f.Stdio) {
			f.Stdio = append(f.Stdio, StdioRecord{ID: src.ID, Rank: rank})
		}
		dst := &f.Stdio[j]
		if dst.Rank != rank {
			dst.Rank = MergedRank
		}
		foldStdioCounters(dst, src)
	}
}

// finish re-ranks every folded POSIX record's combined access table into
// ACCESS1..4.
func (f *recordFold) finish() {
	for i := range f.Posix {
		f.access[i].finalize(&f.Posix[i])
	}
}

// Merge reduces per-rank job-end logs (index = rank) into one merged log:
// JobEnd is the latest per-rank job end, Names the union of the name
// tables, Posix and Stdio one aggregated record per file id in order of
// first appearance (rank-major, then record order within the rank), and
// Timeline every rank's DXT segments in global timeline order. Each
// counter reduces by its kind in counters.go:
//
//   - operation/byte/bucket counters and F_*_TIME accumulators: summed,
//     so the merged value equals the sum of the per-rank values exactly;
//   - MAX_BYTE_* watermarks, *_END_TIMESTAMP and F_MAX_*_TIME: maximum
//     across ranks;
//   - *_START_TIMESTAMP: earliest nonzero;
//   - ACCESS1..4: re-ranked from the union of the per-rank access tables.
//
// NProcs is the number of rank slots; a nil slot is a rank without
// records.
func Merge(perRank []*Log) *Log {
	f := newRecordFold(perRank)
	out := f.Log
	out.NProcs, out.Merged = len(perRank), true

	// The timeline is sized up front; it stays nil without segments, as
	// the log decoder leaves an empty timeline.
	nSegs := 0
	for _, l := range perRank {
		if l == nil {
			continue
		}
		for i := range l.DXT {
			nSegs += len(l.DXT[i].ReadSegs) + len(l.DXT[i].WriteSegs)
		}
	}
	if nSegs > 0 {
		out.Timeline = make([]MergedSegment, 0, nSegs)
	}

	for rank, l := range perRank {
		if l == nil {
			continue
		}
		// The slot index is the rank, for records and timeline alike
		// (stamped record ranks may be absent when merging independently
		// captured runs).
		f.add(rank, l)
		for i := range l.DXT {
			rec := &l.DXT[i]
			out.DroppedSegments += rec.Dropped
			for _, seg := range rec.ReadSegs {
				out.Timeline = append(out.Timeline, MergedSegment{Segment: seg, Rank: rank, ID: rec.ID})
			}
			for _, seg := range rec.WriteSegs {
				out.Timeline = append(out.Timeline, MergedSegment{Segment: seg, Rank: rank, ID: rec.ID, Write: true})
			}
		}
	}

	f.finish()
	sortTimeline(out.Timeline)
	return out
}

// compareSegments is the global timeline order: start time, then fully
// deterministic tie-breaks (end, rank, file, offset, reads before writes).
// Segments that differ only in length or thread compare equal.
func compareSegments(a, b *MergedSegment) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Offset, b.Offset); c != 0 {
		return c
	}
	switch {
	case a.Write == b.Write:
		return 0
	case b.Write:
		return -1
	}
	return 1
}

// sortTimeline puts tl into global timeline order, stably: segments that
// compare equal keep their input order (rank-major, record order, reads
// before writes). Per-record runs are not start-ordered — DXT appends a
// segment when the operation completes, so concurrent readers interleave
// — hence a full sort. It sorts keys bucket<<32 | inputIndex, where
// bucket is startBuckets' non-decreasing map of Start, so one integer
// sort orders every pair of segments in different buckets without
// loading either; each run of equal buckets is then sorted by
// compareSegments with the input index as the last tie-break. That is
// the stable order in O(n log n) without moving 64-byte segments while
// sorting. The permutation is then applied in place along its cycles, so
// no second timeline is held. Timelines stay far below 2^32 segments (the
// log format caps them at 2^24).
func sortTimeline(tl []MergedSegment) {
	keys := make([]uint64, len(tl))
	bucket := startBuckets(tl)
	for i := range tl {
		keys[i] = uint64(bucket(tl[i].Start))<<32 | uint64(i)
	}
	slices.Sort(keys)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b uint64) int {
				if c := compareSegments(&tl[uint32(a)], &tl[uint32(b)]); c != 0 {
					return c
				}
				return cmp.Compare(uint32(a), uint32(b))
			})
		}
		lo = hi
	}
	// The low half of keys[k] is the input index of the segment that
	// belongs at k; a slot is marked filled once it is.
	const filled = math.MaxUint64
	for start := range keys {
		if keys[start] == filled || int(uint32(keys[start])) == start {
			continue
		}
		held := tl[start]
		k := start
		for {
			src := int(uint32(keys[k]))
			keys[k] = filled
			if src == start {
				tl[k] = held
				break
			}
			tl[k] = tl[src]
			k = src
		}
	}
}

// startBuckets returns a map of start times onto 32-bit buckets that never
// decreases in compareSegments' order of starts, cmp.Compare's, and gives
// equal starts (-0 and +0 too) one bucket: NaN, which cmp.Compare puts
// first, and -Inf map to bucket 0, +Inf to the last, and the finite
// starts of tl spread linearly over the buckets between. Rounding in the
// map only merges buckets; it never reorders them.
func startBuckets(tl []MergedSegment) func(float64) uint32 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range tl {
		if s := tl[i].Start; !math.IsNaN(s) && !math.IsInf(s, 0) {
			lo, hi = min(lo, s), max(hi, s)
		}
	}
	scale := math.MaxUint32 / (hi - lo)
	if !(hi > lo) || math.IsInf(hi-lo, 0) || math.IsInf(scale, 0) {
		// No spread to map: one run, sorted by compareSegments alone.
		return func(float64) uint32 { return 0 }
	}
	return func(s float64) uint32 {
		switch {
		case math.IsNaN(s) || s < lo:
			return 0
		case s > hi:
			return math.MaxUint32
		}
		return uint32(min((s-lo)*scale, math.MaxUint32))
	}
}

// TotalPosix sums counter c over the log's POSIX records. On a merged log
// this equals the sum over the per-rank logs for every additive counter,
// the merge invariant the cluster experiments check.
func (l *Log) TotalPosix(c PosixCounter) int64 {
	var n int64
	for i := range l.Posix {
		n += l.Posix[i].Counters[c]
	}
	return n
}

// TotalStdio sums counter c over the log's STDIO records.
func (l *Log) TotalStdio(c StdioCounter) int64 {
	var n int64
	for i := range l.Stdio {
		n += l.Stdio[i].Counters[c]
	}
	return n
}
