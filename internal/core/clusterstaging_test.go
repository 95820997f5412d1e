package core

import (
	"reflect"
	"testing"

	"repro/internal/darshan"
)

// rankSnapshot builds a per-rank job-end snapshot whose POSIX records
// carry enough activity for Analyze to keep them.
func rankSnapshot(time float64, files map[uint64]string) *darshan.Log {
	s := &darshan.Log{NProcs: 1, JobEnd: time, Names: map[uint64]string{}}
	for id, name := range files {
		s.Names[id] = name
		rec := darshan.PosixRecord{ID: id}
		rec.Counters[darshan.POSIX_OPENS] = 1
		rec.Counters[darshan.POSIX_READS] = 2
		s.Posix = append(s.Posix, rec)
	}
	return s
}

func sizeOfMap(sizes map[string]int64) SizeOfFunc {
	return func(path string) (int64, bool) {
		sz, ok := sizes[path]
		return sz, ok
	}
}

func TestAdviseClusterStagingStagesOnlyTheRanksOwnShard(t *testing.T) {
	// Two ranks with disjoint shards plus one manifest both re-read: the
	// shared file must appear in neither rank's plan.
	sizes := map[string]int64{
		"/pfs/a0": 100 << 10, "/pfs/a1": 200 << 10,
		"/pfs/b0": 100 << 10, "/pfs/b1": 300 << 10,
		"/pfs/manifest": 4 << 10,
	}
	snapA := rankSnapshot(2.0, map[uint64]string{1: "/pfs/a0", 2: "/pfs/a1", 9: "/pfs/manifest"})
	snapB := rankSnapshot(2.0, map[uint64]string{3: "/pfs/b0", 4: "/pfs/b1", 9: "/pfs/manifest"})
	advs := AdviseClusterStaging([]*darshan.Log{snapA, snapB}, ClusterStagingOptions{
		PerNodeCapacity: 1 << 30,
		Objective:       StagingMetadataBound,
		SizeOf:          sizeOfMap(sizes),
	})
	if len(advs) != 2 {
		t.Fatalf("got %d advices, want 2", len(advs))
	}
	want := [][]string{{"/pfs/a0", "/pfs/a1"}, {"/pfs/b0", "/pfs/b1"}}
	for r, adv := range advs {
		if !reflect.DeepEqual(adv.Files, want[r]) {
			t.Fatalf("rank %d stages %v, want %v", r, adv.Files, want[r])
		}
	}
}

func TestAdviseClusterStagingRespectsPerNodeCapacity(t *testing.T) {
	sizes := map[string]int64{"/pfs/a0": 300 << 10, "/pfs/a1": 300 << 10}
	snap := rankSnapshot(2.0, map[uint64]string{1: "/pfs/a0", 2: "/pfs/a1"})
	advs := AdviseClusterStaging([]*darshan.Log{snap}, ClusterStagingOptions{
		PerNodeCapacity: 100 << 10, // nothing fits
		Objective:       StagingMetadataBound,
		SizeOf:          sizeOfMap(sizes),
	})
	if advs[0].FileCount != 0 || len(advs[0].Files) != 0 {
		t.Fatalf("capacity-infeasible plan staged %v", advs[0].Files)
	}
}

func TestAdviseClusterStagingRanks1DegeneratesToAdviseStaging(t *testing.T) {
	// With the single-process objective, a one-rank cluster's advice is
	// exactly AdviseStaging over the same snapshot-derived session stats
	// (the malware-like shape: small files worth staging, large ones not).
	sizes := map[string]int64{
		"/hdd/s0": 500 << 10, "/hdd/s1": 900 << 10, "/hdd/s2": 1 << 20,
		"/hdd/l0": 6 << 20, "/hdd/l1": 8 << 20, "/hdd/l2": 7 << 20, "/hdd/l3": 9 << 20,
	}
	snap := rankSnapshot(3.0, map[uint64]string{
		1: "/hdd/s0", 2: "/hdd/s1", 3: "/hdd/s2",
		4: "/hdd/l0", 5: "/hdd/l1", 6: "/hdd/l2", 7: "/hdd/l3",
	})
	capacity := int64(280 << 30)
	sizeOf := sizeOfMap(sizes)
	got := AdviseClusterStaging([]*darshan.Log{snap}, ClusterStagingOptions{
		PerNodeCapacity: capacity,
		Objective:       StagingBytesScarce,
		SizeOf:          sizeOf,
	})
	want := AdviseStaging(AnalyzeSnapshot(snap, sizeOf), capacity)
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("ranks=1 cluster advice %+v differs from AdviseStaging %+v", got[0], want)
	}
	if want.FileCount == 0 {
		t.Fatal("degenerate check vacuous: single-process advisor staged nothing")
	}
}

func TestAdviseClusterStagingNilRank(t *testing.T) {
	advs := AdviseClusterStaging([]*darshan.Log{nil}, ClusterStagingOptions{})
	if len(advs) != 1 || advs[0].FileCount != 0 {
		t.Fatalf("nil snapshot advice: %+v", advs)
	}
}
