package darshan

import "testing"

func posixSnap(time float64, ids ...uint64) *Log {
	s := &Log{JobEnd: time, NProcs: 1, Names: map[uint64]string{}}
	for _, id := range ids {
		rec := PosixRecord{ID: id}
		rec.Counters[POSIX_OPENS] = 1
		rec.FCounters[POSIX_F_META_TIME] = 0.5
		s.Posix = append(s.Posix, rec)
	}
	return s
}

func TestTotalPosixFSumsAcrossRecordsAndRanks(t *testing.T) {
	a := posixSnap(1.0, 1, 2)
	b := posixSnap(1.0, 2, 3)
	if got := a.TotalPosixF(POSIX_F_META_TIME); got != 1.0 {
		t.Fatalf("snapshot TotalPosixF = %v, want 1.0", got)
	}
	m := Merge([]*Log{a, b})
	// Merge sums F_META_TIME across ranks: 4 record contributions total.
	if got := m.TotalPosixF(POSIX_F_META_TIME); got != 2.0 {
		t.Fatalf("merged TotalPosixF = %v, want 2.0", got)
	}
}

func TestSharedRecordIDsMatchesMergeSharedRanking(t *testing.T) {
	perRank := []*Log{
		posixSnap(1.0, 1, 2, 5),
		nil, // dead rank: skipped, like Merge does
		posixSnap(1.0, 2, 3),
		posixSnap(1.0, 3, 4, 5),
	}
	shared := SharedRecordIDs(perRank)
	want := map[uint64]bool{2: true, 3: true, 5: true}
	if len(shared) != len(want) {
		t.Fatalf("shared ids = %v, want %v", shared, want)
	}
	for id := range want {
		if !shared[id] {
			t.Fatalf("id %d missing from shared set %v", id, shared)
		}
	}
	// The same ids — and only those — carry MergedRank in the merged log.
	m := Merge(perRank)
	for i := range m.Posix {
		rec := &m.Posix[i]
		if got := rec.Rank == MergedRank; got != shared[rec.ID] {
			t.Fatalf("record %d: merged rank %d vs shared=%v", rec.ID, rec.Rank, shared[rec.ID])
		}
	}
}
