package darshan

import (
	"io"
	"testing"

	"repro/internal/sim"
)

// TestSteadyStateDXTAppendZeroAlloc pins the instrumented record-update
// hot path at 0 allocs/op in steady state: recordRead (counter bumps +
// inline access-size table) plus the DXT segment append, including the
// virtual-time charges, once slice capacities have been warmed.
func TestSteadyStateDXTAppendZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	rt := NewRuntime(DefaultConfig(), 0)
	var allocs float64
	k.Spawn("writer", func(th *sim.Thread) {
		rec := rt.Posix.recordFor(th, "/data/file-0")
		if rec == nil {
			t.Error("no record")
			return
		}
		// Warm up: grow the DXT segment slice past the measurement count
		// so only amortized steady-state appends are measured.
		var off int64
		for i := 0; i < 2048; i++ {
			rt.Posix.recordRead(th, rec, off, 4096, 0, 0)
			off += 4096
		}
		allocs = testing.AllocsPerRun(1000, func() {
			rt.Posix.recordRead(th, rec, off, 4096, 0, 0)
			off += 4096
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state recordRead+DXT append: %v allocs/op, want 0", allocs)
	}
}

// TestMergedLogWriteAllocsIndependentOfTimeline pins the encoder's
// allocations per (*Log).Write to a constant: it reuses one chunk buffer,
// so a 100x longer timeline allocates no more often.
func TestMergedLogWriteAllocsIndependentOfTimeline(t *testing.T) {
	allocs := func(segs int) float64 {
		log := Merge(timelineSnapshots(benchRanks, 16, segs))
		return testing.AllocsPerRun(10, func() {
			if err := log.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Fatalf("(*Log).Write allocates %v times at 1k segments but %v at 100k", small, large)
	}
}

// TestAccessSizeInlineTable verifies the inline small-N array fronting the
// access-size map: ≤4 distinct sizes never allocate the map, >4 spill to
// it, and ACCESS1..4 finalization sees the union either way.
func TestAccessSizeInlineTable(t *testing.T) {
	var tab accessTable
	for _, s := range []int64{100, 200, 100, 300, 400, 100, 200} {
		tab.bump(s, 1)
	}
	if tab.overflow != nil {
		t.Fatalf("map allocated for %d distinct sizes", tab.n)
	}
	rec := &PosixRecord{ID: 1}
	tab.finalize(rec)
	// Counts: 100×3, 200×2, 300×1, 400×1 → ranked by count desc, size asc.
	wantSizes := []int64{100, 200, 300, 400}
	wantCounts := []int64{3, 2, 1, 1}
	for i := 0; i < 4; i++ {
		if got := rec.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(i)]; got != wantSizes[i] {
			t.Errorf("ACCESS%d size = %d, want %d", i+1, got, wantSizes[i])
		}
		if got := rec.Counters[POSIX_ACCESS1_COUNT+PosixCounter(i)]; got != wantCounts[i] {
			t.Errorf("ACCESS%d count = %d, want %d", i+1, got, wantCounts[i])
		}
	}

	// Spill: a fifth and sixth distinct size overflow to the map; the
	// re-ranked table draws from both stores.
	var tab2 accessTable
	for _, s := range []int64{1, 2, 3, 4, 5, 5, 5, 6, 2} {
		tab2.bump(s, 1)
	}
	if tab2.overflow == nil {
		t.Fatal("overflow map not allocated for 6 distinct sizes")
	}
	if tab2.n != accessInlineCap {
		t.Fatalf("inline entries = %d, want %d", tab2.n, accessInlineCap)
	}
	rec2 := &PosixRecord{ID: 2}
	tab2.finalize(rec2)
	// Counts: 5×3, 2×2, then 1,3,4,6 ×1 → top four: 5, 2, 1, 3.
	wantSizes = []int64{5, 2, 1, 3}
	wantCounts = []int64{3, 2, 1, 1}
	for i := 0; i < 4; i++ {
		if got := rec2.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(i)]; got != wantSizes[i] {
			t.Errorf("spilled ACCESS%d size = %d, want %d", i+1, got, wantSizes[i])
		}
		if got := rec2.Counters[POSIX_ACCESS1_COUNT+PosixCounter(i)]; got != wantCounts[i] {
			t.Errorf("spilled ACCESS%d count = %d, want %d", i+1, got, wantCounts[i])
		}
	}
}
