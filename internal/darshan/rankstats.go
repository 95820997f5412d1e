package darshan

// This file holds the per-rank statistics helpers the cluster-aware
// advisors consume: float-counter aggregates over merged logs (the
// MDS-saturation signal is the merged POSIX_F_META_TIME) and shared-record
// detection over per-rank logs (a rank stages only the files it owns
// exclusively — its shard — never the manifest every rank re-reads).

// TotalPosixF sums float counter c over the log's POSIX records. For the
// summed-time accumulators (F_READ_TIME, F_WRITE_TIME, F_META_TIME) on a
// merged log this is total time across all ranks, the quantity whose
// growth past the MDS saturation knee the cluster tuner watches.
func (l *Log) TotalPosixF(c PosixFCounter) float64 {
	var n float64
	for i := range l.Posix {
		n += l.Posix[i].FCounters[c]
	}
	return n
}

// SharedRecordIDs returns the POSIX record ids present in more than one
// of the per-rank logs — the files Darshan's shutdown reduction folds
// into rank −1 shared records (Merge marks exactly these MergedRank). Nil
// logs are skipped, matching Merge.
func SharedRecordIDs(perRank []*Log) map[uint64]bool {
	seen := make(map[uint64]int)
	for _, l := range perRank {
		if l == nil {
			continue
		}
		for i := range l.Posix {
			seen[l.Posix[i].ID]++
		}
	}
	shared := make(map[uint64]bool)
	for id, n := range seen {
		if n > 1 {
			shared[id] = true
		}
	}
	return shared
}
