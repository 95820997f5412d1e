package distributed

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/darshan"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/workload"
)

const testSeed = 20200812

// buildDataset populates a small ImageNet-like corpus on the cluster FS.
func buildDataset(t *testing.T, c *platform.Cluster, files int) *workload.Dataset {
	t.Helper()
	spec := workload.DatasetSpec{
		Name: "dist", Dir: platform.KebnekaiseLustre + "/dist",
		NumFiles: files, TotalBytes: int64(files) * 96 * 1024, Seed: testSeed,
	}
	d, err := workload.Generate(c.FS, spec, workload.ImageNetSizes(spec))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runRanks(t *testing.T, ranks, files int, opts Options) *Result {
	t.Helper()
	c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, files)
	res, err := Run(c, d.Paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func defaultOpts() Options {
	return Options{
		Threads: 4, Batch: 16, Prefetch: 4, Shuffle: testSeed,
		Model: workload.AlexNet, MapFn: workload.ImageNetMap,
	}
}

// TestSingleRankBitIdenticalToSingleProcessPipeline is the acceptance
// criterion: a one-rank distributed run produces exactly the Darshan
// record set and virtual timing of the pre-existing single-process
// pipeline over the same workload.
func TestSingleRankBitIdenticalToSingleProcessPipeline(t *testing.T) {
	const files = 64
	opts := defaultOpts()

	// Distributed driver, one rank.
	cluster := platform.NewKebnekaiseCluster(1, platform.Options{PreloadDarshan: true})
	dDist := buildDataset(t, cluster, files)
	distRes, err := Run(cluster, dDist.Paths, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The existing single-process pipeline: same workload, same pipeline
	// parameters, plain keras.Fit on a preloaded single machine.
	m := platform.NewKebnekaise(platform.Options{PreloadDarshan: true})
	spec := workload.DatasetSpec{
		Name: "dist", Dir: platform.KebnekaiseLustre + "/dist",
		NumFiles: files, TotalBytes: int64(files) * 96 * 1024, Seed: testSeed,
	}
	dSolo, err := workload.Generate(m.FS, spec, workload.ImageNetSizes(spec))
	if err != nil {
		t.Fatal(err)
	}
	steps := files / opts.Batch
	var hist *keras.History
	m.K.Spawn("trainer", func(th *sim.Thread) {
		ds := tfdata.FromFiles(m.Env, dSolo.Paths).Shuffle(opts.Shuffle).
			Map(opts.MapFn, opts.Threads).Batch(opts.Batch).Prefetch(opts.Prefetch)
		it, err := ds.MakeIterator()
		if err != nil {
			t.Error(err)
			return
		}
		hist, err = workload.AlexNet().Fit(th, m.Env, it, keras.FitOptions{Steps: steps})
		if err != nil {
			t.Error(err)
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	soloSnap := m.Darshan.Export(m.K.Now())

	if distRes.Steps != steps {
		t.Fatalf("distributed ran %d steps, single-process %d", distRes.Steps, steps)
	}
	rank0 := distRes.PerRank[0]
	if rank0.History.Duration() != hist.Duration() {
		t.Errorf("fit duration diverged: dist %d ns, solo %d ns", rank0.History.Duration(), hist.Duration())
	}
	if !reflect.DeepEqual(rank0.History.StepWaitNs, hist.StepWaitNs) {
		t.Error("per-step input waits diverged")
	}
	if !reflect.DeepEqual(rank0.Snapshot, soloSnap) {
		t.Error("rank-0 Darshan record set diverged from the single-process pipeline")
	}
	// A one-rank merge is the rank log itself (modulo the merged-rank
	// stamp on records).
	for c := darshan.PosixCounter(0); c < darshan.PosixNumCounters; c++ {
		if !darshan.PosixCounterAdditive(c) {
			continue
		}
		if distRes.Merged.TotalPosix(c) != soloSnap.TotalPosix(c) {
			t.Errorf("merged %v = %d, single-process %d", c, distRes.Merged.TotalPosix(c), soloSnap.TotalPosix(c))
		}
	}
}

func TestMergedCountersEqualPerRankSums(t *testing.T) {
	res := runRanks(t, 4, 128, defaultOpts())
	for c := darshan.PosixCounter(0); c < darshan.PosixNumCounters; c++ {
		if !darshan.PosixCounterAdditive(c) {
			continue
		}
		var want int64
		for _, r := range res.PerRank {
			want += r.Snapshot.TotalPosix(c)
		}
		if got := res.Merged.TotalPosix(c); got != want {
			t.Errorf("%v: merged %d, per-rank sum %d", c, got, want)
		}
	}
	// Every rank actually read data, and reads hit disjoint files: no data
	// file appears in more than one rank's record set.
	seen := map[uint64]int{}
	for _, r := range res.PerRank {
		if r.Snapshot.TotalPosix(darshan.POSIX_BYTES_READ) == 0 {
			t.Errorf("rank %d read no bytes", r.Rank)
		}
		for i := range r.Snapshot.Posix {
			rec := &r.Snapshot.Posix[i]
			if rec.Rank != r.Rank {
				t.Errorf("record %d on rank %d stamped rank %d", rec.ID, r.Rank, rec.Rank)
			}
			seen[rec.ID]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("file %d touched by %d ranks, shards not disjoint", id, n)
		}
	}
	// With disjoint shards every merged record keeps its owning rank; the
	// -1 shared-record sentinel never appears.
	for i := range res.Merged.Posix {
		if res.Merged.Posix[i].Rank == darshan.MergedRank {
			t.Errorf("merged record %d lost its owning rank", res.Merged.Posix[i].ID)
		}
	}
}

func TestMergedTimelineOrderedAndAttributed(t *testing.T) {
	res := runRanks(t, 4, 128, defaultOpts())
	tl := res.Merged.Timeline
	if len(tl) == 0 {
		t.Fatal("empty merged timeline")
	}
	ranksSeen := map[int]bool{}
	for i, s := range tl {
		if i > 0 && s.Start < tl[i-1].Start {
			t.Fatalf("timeline out of order at %d", i)
		}
		if s.Rank < 0 || s.Rank >= 4 {
			t.Fatalf("segment with bad rank %d", s.Rank)
		}
		ranksSeen[s.Rank] = true
	}
	if len(ranksSeen) != 4 {
		t.Fatalf("timeline covers %d ranks, want 4", len(ranksSeen))
	}
	// Segment count equals the per-rank DXT totals.
	var want int
	for _, r := range res.PerRank {
		for i := range r.Snapshot.DXT {
			want += len(r.Snapshot.DXT[i].ReadSegs) + len(r.Snapshot.DXT[i].WriteSegs)
		}
	}
	if len(tl) != want {
		t.Fatalf("timeline has %d segments, per-rank logs have %d", len(tl), want)
	}
}

func TestRanks4Deterministic(t *testing.T) {
	a := runRanks(t, 4, 96, defaultOpts())
	b := runRanks(t, 4, 96, defaultOpts())
	if a.WallSeconds != b.WallSeconds {
		t.Fatalf("wall time diverged: %v vs %v", a.WallSeconds, b.WallSeconds)
	}
	if !reflect.DeepEqual(a.Merged, b.Merged) {
		t.Fatal("merged records are not bit-identical across runs")
	}
	for r := range a.PerRank {
		if !reflect.DeepEqual(a.PerRank[r].Snapshot, b.PerRank[r].Snapshot) {
			t.Fatalf("rank %d record set diverged across runs", r)
		}
	}
}

func TestLockstepSynchronizationCouplesRanks(t *testing.T) {
	res := runRanks(t, 4, 128, defaultOpts())
	// Synchronous data parallelism: every rank runs the same step count
	// and ends the job together (last step's barrier releases everyone).
	for _, r := range res.PerRank {
		if r.History.StepsRun != res.Steps {
			t.Fatalf("rank %d ran %d steps, want %d", r.Rank, r.History.StepsRun, res.Steps)
		}
		if len(r.History.StepSyncNs) != res.Steps {
			t.Fatalf("rank %d recorded %d sync samples", r.Rank, len(r.History.StepSyncNs))
		}
	}
	// Some rank must have waited on the barrier at some point.
	var totalSync int64
	for _, r := range res.PerRank {
		totalSync += r.History.SyncNs()
	}
	if totalSync == 0 {
		t.Fatal("no barrier wait recorded across ranks")
	}
}

// TestEpochsReshuffle: a two-epoch job reads every file exactly once per
// epoch, runs the lockstep steps of both epochs, and reports the
// per-epoch shard size.
func TestEpochsReshuffle(t *testing.T) {
	opts := defaultOpts()
	opts.Epochs = 2
	opts.Batch = 4
	opts.Model = nil // STREAM-style lockstep loop
	opts.MapFn = workload.StreamMap
	res := runRanks(t, 2, 24, opts)
	// 24 files, 2 ranks, 2 epochs: every file is opened exactly twice.
	if got := res.Merged.TotalPosix(darshan.POSIX_OPENS); got != 48 {
		t.Fatalf("merged opens = %d, want 48", got)
	}
	for i := range res.Merged.Posix {
		if got := res.Merged.Posix[i].Counters[darshan.POSIX_OPENS]; got != 2 {
			t.Fatalf("file %s opened %d times, want once per epoch", res.Merged.Names[res.Merged.Posix[i].ID], got)
		}
	}
	if res.Steps != 6 { // 12 files x 2 epochs / batch 4
		t.Fatalf("steps = %d, want 6", res.Steps)
	}
	for _, r := range res.PerRank {
		if r.ShardFiles != 12 { // the shard itself, not shard x epochs
			t.Fatalf("rank %d shard files = %d, want 12", r.Rank, r.ShardFiles)
		}
	}
}

// TestLogSerializationRoundTrip is the serialization half of the merge
// contract, table-driven over the rank ladder: for every rank count the
// merged log and each per-rank log survive Write → ReadLog whole: header,
// every counter, watermark, ACCESS entry, name and DXT segment.
func TestLogSerializationRoundTrip(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 8} {
		res := runRanks(t, ranks, 64, defaultOpts())
		logs, err := res.SerializeLogs()
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		merged, err := darshan.ReadLog(bytes.NewReader(logs.Merged))
		if err != nil {
			t.Fatalf("ranks=%d: merged decode: %v", ranks, err)
		}
		if !reflect.DeepEqual(merged, res.Merged) {
			t.Fatalf("ranks=%d: merged log did not round-trip", ranks)
		}
		if !merged.Merged || merged.NProcs != ranks {
			t.Fatalf("ranks=%d: decoded merged %v nprocs %d", ranks, merged.Merged, merged.NProcs)
		}
		if len(logs.PerRank) != ranks {
			t.Fatalf("ranks=%d: %d per-rank logs", ranks, len(logs.PerRank))
		}
		for r, b := range logs.PerRank {
			log, err := darshan.ReadLog(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("ranks=%d rank %d: %v", ranks, r, err)
			}
			if !reflect.DeepEqual(log, res.PerRank[r].Snapshot) {
				t.Fatalf("ranks=%d rank %d log did not round-trip", ranks, r)
			}
		}
	}
}

// TestSharedPathsProduceSharedRecords: files every rank reads before
// training merge into Darshan's shared-record convention — one rank −1
// record whose counters sum the per-rank contributions — while shard
// files keep their owning ranks.
func TestSharedPathsProduceSharedRecords(t *testing.T) {
	const ranks, manifestSize = 4, 2048
	c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, 32)
	manifest := platform.KebnekaiseLustre + "/dist/MANIFEST"
	if _, err := c.FS.CreateFile(manifest, manifestSize); err != nil {
		t.Fatal(err)
	}
	opts := defaultOpts()
	opts.SharedPaths = []string{manifest}
	res, err := Run(c, d.Paths, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Each rank's own log carries its manifest read under its own rank.
	id := darshan.RecordID(manifest)
	for _, rr := range res.PerRank {
		rec, ok := rr.Snapshot.PosixByID(id)
		if !ok {
			t.Fatalf("rank %d never read the manifest", rr.Rank)
		}
		if rec.Rank != rr.Rank || rec.Counters[darshan.POSIX_OPENS] != 1 ||
			rec.Counters[darshan.POSIX_BYTES_READ] != manifestSize {
			t.Fatalf("rank %d manifest record: %+v", rr.Rank, rec)
		}
	}
	// The merge reduces them to one rank −1 shared record.
	var shared *darshan.PosixRecord
	for i := range res.Merged.Posix {
		if res.Merged.Posix[i].ID == id {
			shared = &res.Merged.Posix[i]
		}
	}
	if shared == nil {
		t.Fatal("manifest missing from merged log")
	}
	if shared.Rank != darshan.MergedRank {
		t.Fatalf("manifest rank = %d, want %d", shared.Rank, darshan.MergedRank)
	}
	if got := shared.Counters[darshan.POSIX_OPENS]; got != ranks {
		t.Fatalf("manifest opens = %d, want %d", got, ranks)
	}
	if got := shared.Counters[darshan.POSIX_BYTES_READ]; got != int64(ranks)*manifestSize {
		t.Fatalf("manifest bytes = %d, want %d", got, ranks*manifestSize)
	}
	// And the serialized merged log keeps the sentinel through a round
	// trip.
	logs, err := res.SerializeLogs()
	if err != nil {
		t.Fatal(err)
	}
	m, err := darshan.ReadLog(bytes.NewReader(logs.Merged))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range m.Posix {
		if m.Posix[i].ID == id && m.Posix[i].Rank == darshan.MergedRank {
			found = true
		}
	}
	if !found {
		t.Fatal("shared record lost through serialization")
	}
}

func TestEmptyShardRejected(t *testing.T) {
	c := platform.NewKebnekaiseCluster(8, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, 4) // fewer files than ranks
	if _, err := Run(c, d.Paths, defaultOpts()); err == nil {
		t.Fatal("expected empty-shard error")
	}
}

func TestShardPathsMatchConsumedShards(t *testing.T) {
	paths := make([]string, 37)
	for i := range paths {
		paths[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	const ranks = 4
	seen := map[string]int{}
	total := 0
	for r := 0; r < ranks; r++ {
		shard := ShardPaths(paths, testSeed, ranks, r)
		if got, want := len(shard), tfdata.ShardLen(len(paths), ranks, r); got != want {
			t.Fatalf("rank %d shard has %d files, ShardLen says %d", r, got, want)
		}
		for _, p := range shard {
			seen[p]++
		}
		total += len(shard)
	}
	// Shards are disjoint and jointly cover the list.
	if total != len(paths) || len(seen) != len(paths) {
		t.Fatalf("shards cover %d/%d paths (%d uniques)", total, len(paths), len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("path %s appears in %d shards", p, n)
		}
	}
	// And the driver consumes exactly these files per rank.
	res := runRanks(t, ranks, 64, defaultOpts())
	for r, rr := range res.PerRank {
		if want := len(ShardPaths(make([]string, 64), testSeed, ranks, r)); rr.ShardFiles != want {
			t.Fatalf("rank %d consumed %d files, ShardPaths says %d", r, rr.ShardFiles, want)
		}
	}
}

// TestPerRankOptionValidation: every rank's pipeline needs at least one
// map thread, a non-negative prefetch depth and a positive batch.
func TestPerRankOptionValidation(t *testing.T) {
	c := platform.NewKebnekaiseCluster(2, platform.Options{PreloadDarshan: true})
	d := buildDataset(t, c, 32)
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero threads", func(o *Options) { o.Threads = 0 }},
		{"negative prefetch", func(o *Options) { o.Prefetch = -1 }},
		{"zero batch", func(o *Options) { o.Batch = 0 }},
	} {
		opts := defaultOpts()
		tc.mutate(&opts)
		if _, err := Run(c, d.Paths, opts); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

func TestProbeStepsCapLockstepWindow(t *testing.T) {
	full := runRanks(t, 2, 64, defaultOpts())
	opts := defaultOpts()
	opts.ProbeSteps = 1
	probe := runRanks(t, 2, 64, opts)
	if probe.Steps != 1 {
		t.Fatalf("probe window ran %d steps, want 1", probe.Steps)
	}
	if full.Steps <= probe.Steps {
		t.Fatalf("full epoch ran %d steps, expected more than the probe", full.Steps)
	}
	if !(probe.WallSeconds < full.WallSeconds) {
		t.Fatalf("probe window (%.3fs) not shorter than the epoch (%.3fs)",
			probe.WallSeconds, full.WallSeconds)
	}
	// A cap above the epoch is a no-op.
	opts.ProbeSteps = 10_000
	uncapped := runRanks(t, 2, 64, opts)
	if uncapped.Steps != full.Steps || uncapped.WallSeconds != full.WallSeconds {
		t.Fatalf("oversized ProbeSteps changed the run: %d/%.3fs vs %d/%.3fs",
			uncapped.Steps, uncapped.WallSeconds, full.Steps, full.WallSeconds)
	}
}
