package darshan

import (
	"cmp"
	"maps"
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

// MergedLog is the cross-rank aggregate of per-rank snapshots.
type MergedLog struct {
	// NProcs is the number of rank logs merged.
	NProcs int
	// JobEnd is the latest snapshot time across ranks (seconds).
	JobEnd float64
	// Names is the union of the per-rank name tables.
	Names map[uint64]string
	// Posix and Stdio hold one aggregated record per file id, ordered by
	// first appearance (rank-major, then record order within the rank).
	// A record's Rank is its owning rank, or MergedRank once a second
	// rank contributes to the same file.
	Posix []PosixRecord
	Stdio []StdioRecord
	// Timeline is every rank's DXT segments in one globally ordered
	// sequence (by start time; deterministic tie-breaks).
	Timeline []MergedSegment
	// DroppedSegments sums DXT segments lost to per-record memory bounds.
	DroppedSegments int64
	// Faults sums the per-rank transient-fault/retry tallies (faults.go).
	// Side channel only: not part of the serialized merged-log format.
	Faults FaultCounters
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
func foldPosixCounters(dst, src *PosixRecord) {
	fold(dst.Counters[:], src.Counters[:], posixCounters[:])
	fold(dst.FCounters[:], src.FCounters[:], posixFCounters[:])
	for k := range PosixCounter(4) {
		if count := src.Counters[POSIX_ACCESS1_COUNT+k]; count > 0 {
			dst.bumpAccess(src.Counters[POSIX_ACCESS1_ACCESS+k], count)
		}
	}
}

// foldStdioCounters folds src's STDIO counters into dst by their kinds.
func foldStdioCounters(dst, src *StdioRecord) {
	fold(dst.Counters[:], src.Counters[:], stdioCounters[:])
	fold(dst.FCounters[:], src.FCounters[:], stdioFCounters[:])
}

// recordFold reduces the module records of many snapshots to one record
// per file id, ordered by first appearance (snapshot order, then record
// order). Merge feeds it one snapshot per rank, CombineSnapshots one per
// process incarnation of a single rank. The accumulator is a Snapshot:
// the latest snapshot time, the summed fault tallies, the union of the
// name tables and the folded POSIX and STDIO records; DXT is left to the
// caller.
type recordFold struct {
	*Snapshot
	// posixIdx and stdioIdx map a file id to its record's index, assigned
	// in first-appearance order before any record is folded.
	posixIdx map[uint64]int
	stdioIdx map[uint64]int
}

// newRecordFold sizes a fold of snaps (nil entries skipped) before any
// record is folded: it indexes the union of the record ids in
// first-appearance order and allocates Posix and Stdio once at the size of
// that union. A module no snapshot has records of stays nil, as the log
// decoder leaves an empty block, so folds and decoded logs DeepEqual. The
// index maps and the name table are sized by the largest per-snapshot
// count, the least their union can hold.
func newRecordFold(snaps []*Snapshot) *recordFold {
	var nNames, nPosix, nStdio int
	for _, snap := range snaps {
		if snap != nil {
			nNames = max(nNames, len(snap.Names))
			nPosix = max(nPosix, len(snap.Posix))
			nStdio = max(nStdio, len(snap.Stdio))
		}
	}
	f := &recordFold{
		Snapshot: &Snapshot{Names: make(map[uint64]string, nNames)},
		posixIdx: make(map[uint64]int, nPosix),
		stdioIdx: make(map[uint64]int, nStdio),
	}
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		for i := range snap.Posix {
			if _, seen := f.posixIdx[snap.Posix[i].ID]; !seen {
				f.posixIdx[snap.Posix[i].ID] = len(f.posixIdx)
			}
		}
		for i := range snap.Stdio {
			if _, seen := f.stdioIdx[snap.Stdio[i].ID]; !seen {
				f.stdioIdx[snap.Stdio[i].ID] = len(f.stdioIdx)
			}
		}
	}
	if n := len(f.posixIdx); n > 0 {
		f.Posix = make([]PosixRecord, 0, n)
	}
	if n := len(f.stdioIdx); n > 0 {
		f.Stdio = make([]StdioRecord, 0, n)
	}
	return f
}

// add folds snap, one of the snapshots the fold was sized for, in as
// rank's, in the order they were given to newRecordFold. A file's record
// is created where its id was first indexed, stamped with the first rank
// that touches it, and becomes MergedRank once another rank does.
func (f *recordFold) add(rank int, snap *Snapshot) {
	f.Time = max(f.Time, snap.Time)
	f.Faults.Add(snap.Faults)
	maps.Copy(f.Names, snap.Names)
	for i := range snap.Posix {
		src := &snap.Posix[i]
		j := f.posixIdx[src.ID]
		if j == len(f.Posix) {
			f.Posix = append(f.Posix, PosixRecord{ID: src.ID, Rank: rank})
		}
		dst := &f.Posix[j]
		if dst.Rank != rank {
			dst.Rank = MergedRank
		}
		foldPosixCounters(dst, src)
	}
	for i := range snap.Stdio {
		src := &snap.Stdio[i]
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
// ACCESS1..4 and drops the table.
func (f *recordFold) finish() {
	for i := range f.Posix {
		finalizeAccessCounters(&f.Posix[i])
		f.Posix[i].clearAccessState()
	}
}

// Merge reduces per-rank job-end snapshots (index = rank) into one
// aggregate log. Each counter reduces by its kind in counters.go:
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
func Merge(perRank []*Snapshot) *MergedLog {
	f := newRecordFold(perRank)
	out := &MergedLog{NProcs: len(perRank)}

	// The timeline is sized up front; it stays nil without segments, as
	// the log decoder leaves an empty timeline.
	nSegs := 0
	for _, snap := range perRank {
		if snap == nil {
			continue
		}
		for i := range snap.DXT {
			nSegs += len(snap.DXT[i].ReadSegs) + len(snap.DXT[i].WriteSegs)
		}
	}
	if nSegs > 0 {
		out.Timeline = make([]MergedSegment, 0, nSegs)
	}

	for rank, snap := range perRank {
		if snap == nil {
			continue
		}
		// The snapshot index is the rank, for records and timeline alike
		// (stamped record ranks may be absent when merging independently
		// captured runs).
		f.add(rank, snap)
		for i := range snap.DXT {
			rec := &snap.DXT[i]
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
	out.JobEnd, out.Names, out.Faults = f.Time, f.Names, f.Faults
	out.Posix, out.Stdio = f.Posix, f.Stdio
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
// — hence a full sort. It sorts an int32 index permutation with the input
// index as the last tie-break, which is the stable order in O(n log n)
// without moving 64-byte segments while sorting, then applies the
// permutation in place along its cycles, so no second timeline is held.
// Timelines stay far below 2^31 segments (the log format caps them at
// 2^24).
func sortTimeline(tl []MergedSegment) {
	perm := make([]int32, len(tl))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		if c := compareSegments(&tl[i], &tl[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	// perm[k] is the input index of the segment that belongs at k; a slot
	// is marked -1 once filled.
	for start := range perm {
		if perm[start] < 0 || int(perm[start]) == start {
			continue
		}
		held := tl[start]
		k := start
		for {
			src := int(perm[k])
			perm[k] = -1
			if src == start {
				tl[k] = held
				break
			}
			tl[k] = tl[src]
			k = src
		}
	}
}

func totalPosix(recs []PosixRecord, c PosixCounter) int64 {
	var n int64
	for i := range recs {
		n += recs[i].Counters[c]
	}
	return n
}

func totalStdio(recs []StdioRecord, c StdioCounter) int64 {
	var n int64
	for i := range recs {
		n += recs[i].Counters[c]
	}
	return n
}

// TotalPosix sums counter c over the merged POSIX records.
func (m *MergedLog) TotalPosix(c PosixCounter) int64 { return totalPosix(m.Posix, c) }

// TotalStdio sums counter c over the merged STDIO records.
func (m *MergedLog) TotalStdio(c StdioCounter) int64 { return totalStdio(m.Stdio, c) }

// TotalPosix sums counter c over a snapshot's POSIX records (the per-rank
// side of the merge invariant).
func (s *Snapshot) TotalPosix(c PosixCounter) int64 { return totalPosix(s.Posix, c) }

// TotalStdio sums counter c over a snapshot's STDIO records.
func (s *Snapshot) TotalStdio(c StdioCounter) int64 { return totalStdio(s.Stdio, c) }
