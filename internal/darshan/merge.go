package darshan

import (
	"cmp"
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
// summation. MAX_BYTE_* take the maximum and the ACCESS1..4 table is
// re-ranked from the combined per-size counts.
func PosixCounterAdditive(c PosixCounter) bool {
	switch {
	case c == POSIX_MAX_BYTE_READ || c == POSIX_MAX_BYTE_WRITTEN:
		return false
	case c >= POSIX_ACCESS1_ACCESS && c <= POSIX_ACCESS4_COUNT:
		return false
	}
	return true
}

// StdioCounterAdditive reports whether c aggregates across ranks by
// summation (all but the MAX_BYTE_* watermarks).
func StdioCounterAdditive(c StdioCounter) bool {
	return c != STDIO_MAX_BYTE_READ && c != STDIO_MAX_BYTE_WRITTEN
}

// mergeStartTimestamp folds a *_START_TIMESTAMP: earliest nonzero (zero
// means the operation never happened on that rank).
func mergeStartTimestamp(dst *float64, v float64) {
	if v == 0 {
		return
	}
	if *dst == 0 || v < *dst {
		*dst = v
	}
}

// foldPosixCounters folds src's POSIX counters into dst per the merge
// counter classes, adding src's ACCESS1..4 entries to dst's access table
// for the combined re-rank of finalizeAccessPosix. Shared by the
// cross-rank Merge and the same-rank CombineSnapshots.
func foldPosixCounters(dst, src *PosixRecord) {
	for c := PosixCounter(0); c < PosixNumCounters; c++ {
		switch {
		case PosixCounterAdditive(c):
			dst.Counters[c] += src.Counters[c]
		case c == POSIX_MAX_BYTE_READ || c == POSIX_MAX_BYTE_WRITTEN:
			dst.Counters[c] = maxI64(dst.Counters[c], src.Counters[c])
		}
	}
	for k := 0; k < 4; k++ {
		if count := src.Counters[POSIX_ACCESS1_COUNT+PosixCounter(k)]; count > 0 {
			dst.bumpAccess(src.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(k)], count)
		}
	}
	for c := POSIX_F_OPEN_START_TIMESTAMP; c <= POSIX_F_CLOSE_START_TIMESTAMP; c++ {
		mergeStartTimestamp(&dst.FCounters[c], src.FCounters[c])
	}
	for c := POSIX_F_OPEN_END_TIMESTAMP; c <= POSIX_F_CLOSE_END_TIMESTAMP; c++ {
		dst.FCounters[c] = maxF(dst.FCounters[c], src.FCounters[c])
	}
	for _, c := range []PosixFCounter{POSIX_F_READ_TIME, POSIX_F_WRITE_TIME, POSIX_F_META_TIME} {
		dst.FCounters[c] += src.FCounters[c]
	}
	for _, c := range []PosixFCounter{POSIX_F_MAX_READ_TIME, POSIX_F_MAX_WRITE_TIME} {
		dst.FCounters[c] = maxF(dst.FCounters[c], src.FCounters[c])
	}
}

// foldStdioCounters folds src's STDIO counters into dst per the merge
// counter classes.
func foldStdioCounters(dst, src *StdioRecord) {
	for c := StdioCounter(0); c < StdioNumCounters; c++ {
		if StdioCounterAdditive(c) {
			dst.Counters[c] += src.Counters[c]
		} else {
			dst.Counters[c] = maxI64(dst.Counters[c], src.Counters[c])
		}
	}
	mergeStartTimestamp(&dst.FCounters[STDIO_F_OPEN_START_TIMESTAMP], src.FCounters[STDIO_F_OPEN_START_TIMESTAMP])
	mergeStartTimestamp(&dst.FCounters[STDIO_F_CLOSE_START_TIMESTAMP], src.FCounters[STDIO_F_CLOSE_START_TIMESTAMP])
	dst.FCounters[STDIO_F_OPEN_END_TIMESTAMP] = maxF(dst.FCounters[STDIO_F_OPEN_END_TIMESTAMP], src.FCounters[STDIO_F_OPEN_END_TIMESTAMP])
	dst.FCounters[STDIO_F_CLOSE_END_TIMESTAMP] = maxF(dst.FCounters[STDIO_F_CLOSE_END_TIMESTAMP], src.FCounters[STDIO_F_CLOSE_END_TIMESTAMP])
	for _, c := range []StdioFCounter{STDIO_F_READ_TIME, STDIO_F_WRITE_TIME, STDIO_F_META_TIME} {
		dst.FCounters[c] += src.FCounters[c]
	}
}

// Merge reduces per-rank job-end snapshots (index = rank) into one
// aggregate log. Counter semantics per class:
//
//   - operation/byte/bucket counters: summed, so the merged value equals
//     the sum of the per-rank values exactly;
//   - MAX_BYTE_* watermarks and F_MAX_*_TIME: maximum across ranks;
//   - *_START_TIMESTAMP: earliest nonzero; *_END_TIMESTAMP: latest;
//   - F_*_TIME accumulators: summed (total time across ranks);
//   - ACCESS1..4: re-ranked from the union of the per-rank access tables.
func Merge(perRank []*Snapshot) *MergedLog {
	out := &MergedLog{
		Names: make(map[uint64]string),
	}
	posixIdx := make(map[uint64]int)
	stdioIdx := make(map[uint64]int)

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
		out.NProcs++
		if snap.Time > out.JobEnd {
			out.JobEnd = snap.Time
		}
		out.Faults.Add(snap.Faults)
		for id, name := range snap.Names {
			out.Names[id] = name
		}
		for i := range snap.Posix {
			src := &snap.Posix[i]
			j, seen := posixIdx[src.ID]
			if !seen {
				j = len(out.Posix)
				posixIdx[src.ID] = j
				// The snapshot index is the rank, the same source of truth
				// the timeline uses (stamped record ranks may be absent
				// when merging independently captured runs).
				out.Posix = append(out.Posix, PosixRecord{ID: src.ID, Rank: rank})
			}
			dst := &out.Posix[j]
			if seen && dst.Rank != rank {
				dst.Rank = MergedRank // shared across ranks
			}
			foldPosixCounters(dst, src)
		}
		for i := range snap.Stdio {
			src := &snap.Stdio[i]
			j, seen := stdioIdx[src.ID]
			if !seen {
				j = len(out.Stdio)
				stdioIdx[src.ID] = j
				out.Stdio = append(out.Stdio, StdioRecord{ID: src.ID, Rank: rank})
			}
			dst := &out.Stdio[j]
			if seen && dst.Rank != rank {
				dst.Rank = MergedRank // shared across ranks
			}
			foldStdioCounters(dst, src)
		}
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

	finalizeAccessPosix(out.Posix)
	sortTimeline(out.Timeline)
	return out
}

// finalizeAccessPosix re-ranks every folded record's combined access
// table into ACCESS1..4 and drops the table.
func finalizeAccessPosix(recs []PosixRecord) {
	for i := range recs {
		finalizeAccessCounters(&recs[i])
		recs[i].clearAccessState()
	}
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
