package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/dataservice"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/prefetch"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/tensorboard"
	"repro/internal/tf/keras"
	"repro/internal/tf/profiler"
	"repro/internal/tf/tfdata"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// A scenario is one benchmark workload. setup boots the platform, builds
// the dataset and derives the schedule (the benchmark's setup_s); the
// function it returns runs the measured phase, including the output
// checks, and returns the simulated results. scale multiplies the
// workload's dataset sizes and job counts: 1 is what the benchmark
// measures, the tests run a smoke size.
type scenario struct {
	name  string
	setup func(seed int64, scale float64, tr *tracer) (measure func() (*outcome, error), err error)
}

// workloads are the benchmark's four scenarios; README.md says why each
// was chosen and which layers it stresses or bypasses.
var workloads = []scenario{
	{"imagenet-profiled", setupImagenetProfiled},
	{"cluster-prefetch", setupClusterPrefetch},
	{"cluster-checkpoint", setupClusterCheckpoint},
	{"dataservice-jobs", setupDataserviceJobs},
}

func findWorkload(name string) (scenario, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return scenario{}, false
}

// outcome is the simulated result of one repetition. Every value is exact:
// repetitions of one seed must agree on all of it, and at seed 0 it must
// equal the committed reference.
type outcome struct {
	Counts map[string]float64 `json:"counts"`
	SHA256 map[string]string  `json:"sha256"`
}

// diff lists how p differs from o, one line per differing value, sorted.
func (o *outcome) diff(p *outcome) []string {
	var out []string
	for k, v := range o.Counts {
		if w, ok := p.Counts[k]; !ok || w != v {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, v, p.Counts[k]))
		}
	}
	for k, v := range p.Counts {
		if _, ok := o.Counts[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing vs %v", k, v))
		}
	}
	for k, v := range o.SHA256 {
		if w := p.SHA256[k]; w != v {
			out = append(out, fmt.Sprintf("sha256 %s: %.12s vs %.12s", k, v, w))
		}
	}
	for k, v := range p.SHA256 {
		if _, ok := o.SHA256[k]; !ok {
			out = append(out, fmt.Sprintf("sha256 %s: missing vs %.12s", k, v))
		}
	}
	sort.Strings(out)
	return out
}

// baseShuffle is the experiments' paper-default shuffle seed; -seed N
// shifts it and every dataset seed by N, so seed 0 is the paper run.
const baseShuffle = 20200812

func seeded(spec workload.DatasetSpec, seed int64) workload.DatasetSpec {
	spec.Seed += seed
	return spec
}

func digest(b ...[]byte) string {
	h := sha256.New()
	for _, p := range b {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clusterRanks is the node count of the three cluster workloads.
const clusterRanks = 8

// bootCluster boots the Kebnekaise cluster and builds the ImageNet corpus
// at the given scale on its shared Lustre mount.
func bootCluster(seed int64, scale float64, tr *tracer, cfg *darshan.Config) (*platform.Cluster, *workload.Dataset, error) {
	end := tr.begin("platform.boot")
	c := platform.NewKebnekaiseCluster(clusterRanks, platform.Options{PreloadDarshan: true, DarshanConfig: cfg})
	end()
	end = tr.begin("workload.build")
	d, err := workload.BuildImageNet(c.FS, seeded(workload.ImageNetSpec(platform.KebnekaiseLustre+"/imagenet", scale), seed))
	end()
	return c, d, err
}

// clusterOptions is the per-rank pipeline of the experiments' cluster runs.
func clusterOptions(seed int64) distributed.Options {
	return distributed.Options{
		Threads: 4, Batch: 32, Prefetch: 10,
		Shuffle: baseShuffle + seed,
		Model:   workload.AlexNet, MapFn: workload.ImageNetMap,
	}
}

// ioCounts are the Darshan counters every workload reports.
func ioCounts(posix func(darshan.PosixCounter) int64, stdio func(darshan.StdioCounter) int64) map[string]float64 {
	return map[string]float64{
		"io.posix_opens":   float64(posix(darshan.POSIX_OPENS)),
		"io.posix_reads":   float64(posix(darshan.POSIX_READS)),
		"io.posix_writes":  float64(posix(darshan.POSIX_WRITES)),
		"io.stdio_opens":   float64(stdio(darshan.STDIO_OPENS)),
		"io.stdio_reads":   float64(stdio(darshan.STDIO_READS)),
		"io.stdio_writes":  float64(stdio(darshan.STDIO_WRITES)),
		"io.bytes_read":    float64(posix(darshan.POSIX_BYTES_READ) + stdio(darshan.STDIO_BYTES_READ)),
		"io.bytes_written": float64(posix(darshan.POSIX_BYTES_WRITTEN) + stdio(darshan.STDIO_BYTES_WRITTEN)),
	}
}

// ioOpCounts names the counters whose sum is the simulated I/O operation
// count behind sim_ops_per_s and sim.run.ns_per_io_op.
var ioOpCounts = []string{
	"io.posix_opens", "io.posix_reads", "io.posix_writes",
	"io.stdio_opens", "io.stdio_reads", "io.stdio_writes",
}

// clusterOutcome merges, writes and reads back a cluster run's Darshan
// log and checks it: the benchmark's own darshan.Merge of the per-rank
// snapshots must equal the run's merged log, the decoded
// log must re-encode byte-identically, and the merged POSIX_BYTES_READ
// must equal the per-rank sum.
func clusterOutcome(tr *tracer, perRank []*darshan.Snapshot, merged *darshan.MergedLog, virtSec float64) (*outcome, error) {
	end := tr.begin("darshan.merge")
	again := darshan.Merge(perRank)
	end()
	var log bytes.Buffer
	end = tr.begin("darshan.log_write")
	err := darshan.WriteMergedLog(&log, merged)
	end()
	if err != nil {
		return nil, fmt.Errorf("write merged log: %w", err)
	}
	end = tr.begin("darshan.log_read")
	decoded, err := darshan.ReadMergedLog(bytes.NewReader(log.Bytes()))
	end()
	if err != nil {
		return nil, fmt.Errorf("read merged log: %w", err)
	}

	var reenc bytes.Buffer
	if err := darshan.WriteMergedLog(&reenc, decoded); err != nil {
		return nil, fmt.Errorf("re-encode decoded log: %w", err)
	}
	if !bytes.Equal(reenc.Bytes(), log.Bytes()) {
		return nil, fmt.Errorf("decoded merged log re-encodes to %d bytes that differ from the %d written", reenc.Len(), log.Len())
	}
	if !reflect.DeepEqual(again, merged) {
		return nil, fmt.Errorf("darshan.Merge of the per-rank snapshots differs from the run's merged log")
	}
	var sum int64
	for _, s := range perRank {
		sum += s.TotalPosix(darshan.POSIX_BYTES_READ)
	}
	if got := merged.TotalPosix(darshan.POSIX_BYTES_READ); got != sum {
		return nil, fmt.Errorf("merged POSIX_BYTES_READ %d != per-rank sum %d", got, sum)
	}

	o := &outcome{
		Counts: ioCounts(merged.TotalPosix, merged.TotalStdio),
		SHA256: map[string]string{"merged_log": digest(log.Bytes())},
	}
	o.Counts["dxt.segments"] = float64(len(merged.Timeline))
	o.Counts["log.bytes"] = float64(log.Len())
	o.Counts["virt_s"] = virtSec
	return o, nil
}

// cacheCounts reports where a node-cache tier served its data reads.
func cacheCounts(o *outcome, stats []vfs.NodeCacheStats) {
	var local, peer, pfs, evict int64
	for _, s := range stats {
		local += s.LocalHits
		peer += s.PeerHits
		pfs += s.PFSReads
		evict += s.Evictions
	}
	if total := local + peer + pfs; total > 0 {
		o.Counts["cache.local_hit_rate"] = float64(local) / float64(total)
		o.Counts["cache.peer_hit_rate"] = float64(peer) / float64(total)
		o.Counts["cache.pfs_rate"] = float64(pfs) / float64(total)
	}
	o.Counts["cache.evictions"] = float64(evict)
}

// imagenetScale is the ImageNet scale of imagenet-profiled: 64,000 files
// at scale 1. At paper scale a repetition takes 5.5 s, so a 20 s run holds
// only three and its median varies by 10% from run to run.
const imagenetScale = 0.5

// imagenet-profiled: the paper's own path (Fig. 7a) — one Kebnekaise node
// trains AlexNet over ImageNet on Lustre with tf-Darshan attached through
// the TensorBoard callback, then exports trace.json.gz and profile.pb and
// renders the TensorBoard pages.
func setupImagenetProfiled(seed int64, scale float64, tr *tracer) (func() (*outcome, error), error) {
	end := tr.begin("platform.boot")
	m := platform.NewKebnekaise(platform.Options{})
	cfg := core.DefaultTracerConfig()
	cfg.SizeOf = func(p string) (int64, bool) {
		ino, ok := m.FS.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}
	h := core.Register(m.Env, cfg)
	end()
	end = tr.begin("workload.build")
	d, err := workload.BuildImageNet(m.FS, seeded(workload.ImageNetSpec(platform.KebnekaiseLustre+"/imagenet", imagenetScale*scale), seed))
	end()
	if err != nil {
		return nil, err
	}
	steps := max(1, len(d.Paths)/256)

	return func() (*outcome, error) {
		tb := keras.NewTensorBoard(1, steps)
		var hist *keras.History
		var fitErr error
		m.K.Spawn("trainer", func(t *sim.Thread) {
			it, err := tfdata.FromFiles(m.Env, d.Paths).Shuffle(baseShuffle+seed).
				Map(workload.ImageNetMap, 1).Batch(256).Prefetch(10).MakeIterator()
			if err != nil {
				fitErr = err
				return
			}
			hist, fitErr = workload.AlexNet().Fit(t, m.Env, it, keras.FitOptions{
				Steps: steps, Callbacks: []keras.Callback{tb},
			})
		})
		end := tr.begin("sim.run")
		err := m.K.Run()
		end()
		if err != nil {
			m.K.Shutdown()
			return nil, err
		}
		if fitErr != nil {
			return nil, fitErr
		}
		if tb.Err != nil {
			return nil, tb.Err
		}
		a := h.Last
		if a == nil || tb.Session == nil {
			return nil, fmt.Errorf("no tf-darshan session was collected")
		}

		end = tr.begin("core.export")
		art, err := core.Export(tb.Space, a, tb.Session.StartNs)
		end()
		if err != nil {
			return nil, err
		}
		end = tr.begin("tensorboard.render")
		pd := &tensorboard.ProfileData{
			Run: "imagenet-profiled", History: hist, Analysis: a,
			Space: tb.Space, SessionStartNs: tb.Session.StartNs,
		}
		pages := pd.OverviewText() + "\n" + pd.InputPipelineText()
		end()

		p, err := proto.UnmarshalDarshanProfile(art.ProfilePB)
		if err != nil {
			return nil, fmt.Errorf("profile.pb does not decode: %w", err)
		}
		if p.Opens != a.Opens || p.Reads != a.Reads || p.BytesRead != a.BytesRead {
			return nil, fmt.Errorf("profile.pb counters (opens %d, reads %d, bytes %d) differ from the analysis (%d, %d, %d)",
				p.Opens, p.Reads, p.BytesRead, a.Opens, a.Reads, a.BytesRead)
		}
		if !strings.Contains(pages, "Overview") {
			return nil, fmt.Errorf("TensorBoard overview page is missing")
		}

		o := &outcome{
			Counts: map[string]float64{
				"io.posix_opens":   float64(a.Opens),
				"io.posix_reads":   float64(a.Reads),
				"io.posix_writes":  float64(a.Writes),
				"io.stdio_opens":   float64(a.StdioOpens),
				"io.stdio_reads":   float64(a.StdioReads),
				"io.stdio_writes":  float64(a.StdioWrites),
				"io.bytes_read":    float64(a.BytesRead + a.StdioBytesRead),
				"io.bytes_written": float64(a.BytesWritten + a.StdioBytesWritten),
				"trace.bytes":      float64(len(art.TraceJSONGz)),
				"trace.events":     float64(countEvents(tb.Space.Planes...)),
				"dxt.segments":     float64(countEvents(tb.Space.FindPlane(core.DarshanPlaneName))),
				"virt_s":           sim.Seconds(m.K.Now()),
			},
			SHA256: map[string]string{
				"trace_json_gz+profile_pb": digest(art.TraceJSONGz, art.ProfilePB),
				"tensorboard_pages":        digest([]byte(pages)),
			},
		}
		return o, nil
	}, nil
}

// countEvents totals the events on the planes' lines.
func countEvents(planes ...*profiler.XPlane) int {
	n := 0
	for _, p := range planes {
		if p == nil {
			continue
		}
		for _, l := range p.Lines {
			n += len(l.Events)
		}
	}
	return n
}

// cluster-prefetch: 8 ranks read ImageNet at scale 0.25 (32,000 files) for
// two reshuffled epochs while a
// clairvoyant prefetcher per node fills a peer-served NVMe cache of a
// quarter of the largest epoch shard, then the merged log round-trips.
func setupClusterPrefetch(seed int64, scale float64, tr *tracer) (func() (*outcome, error), error) {
	c, d, err := bootCluster(seed, 0.25*scale, tr, nil)
	if err != nil {
		return nil, err
	}
	size := make(map[string]int64, len(d.Paths))
	for i, p := range d.Paths {
		size[p] = d.Sizes[i]
	}
	var shard int64
	for r := 0; r < clusterRanks; r++ {
		var b int64
		for _, p := range distributed.ShardPaths(d.Paths, baseShuffle+seed, clusterRanks, r) {
			b += size[p]
		}
		shard = max(shard, b)
	}
	cfg := prefetch.Config{Depth: 64, Fetchers: 4, CacheBytes: int64(0.25 * float64(shard)), PeerServing: true}

	return func() (*outcome, error) {
		end := tr.begin("sim.run")
		res, reports, err := prefetch.RunCluster(c, d.Paths, clusterOptions(seed), cfg, 2)
		end()
		if err != nil {
			return nil, err
		}
		o, err := clusterOutcome(tr, rankSnapshots(res), res.Merged, res.WallSeconds)
		if err != nil {
			return nil, err
		}
		stats := make([]vfs.NodeCacheStats, len(reports))
		for i, r := range reports {
			stats[i] = r.Cache
		}
		cacheCounts(o, stats)
		return o, nil
	}, nil
}

func rankSnapshots(res *distributed.Result) []*darshan.Snapshot {
	snaps := make([]*darshan.Snapshot, len(res.PerRank))
	for i := range res.PerRank {
		snaps[i] = res.PerRank[i].Snapshot
	}
	return snaps
}

// checkpointDir is the cluster-checkpoint workload's directory on the
// shared Lustre mount.
const checkpointDir = platform.KebnekaiseLustre + "/ckpt"

// cluster-checkpoint: 8 ranks read ImageNet at scale 0.125 (16,000 files)
// for one epoch, every rank
// writes a STDIO checkpoint every 2 steps with DXT stdio tracing on, and
// rank 1 dies mid-epoch, reboots in 2 s and everyone rolls back and
// restores; then the merged log round-trips.
func setupClusterCheckpoint(seed int64, scale float64, tr *tracer) (func() (*outcome, error), error) {
	dcfg := darshan.DefaultConfig()
	dcfg.DXTStdio = true
	c, d, err := bootCluster(seed, 0.125*scale, tr, &dcfg)
	if err != nil {
		return nil, err
	}
	opts := clusterOptions(seed)
	steps := -1
	for r := 0; r < clusterRanks; r++ {
		s := len(distributed.ShardPaths(d.Paths, opts.Shuffle, clusterRanks, r)) / opts.Batch
		if steps < 0 || s < steps {
			steps = s
		}
	}
	if steps < 4 {
		return nil, fmt.Errorf("%d lockstep steps are too few to fail between checkpoints", steps)
	}
	opts.Checkpoint = distributed.CheckpointPolicy{Pattern: distributed.CkptAllRanks, EverySteps: 2, Dir: checkpointDir}
	opts.Failures = []distributed.FailureEvent{{Rank: 1, Step: steps/2 + 1, RebootDelay: 2 * sim.Second}}

	return func() (*outcome, error) {
		end := tr.begin("sim.run")
		res, err := distributed.Run(c, d.Paths, opts)
		end()
		if err != nil {
			return nil, err
		}
		if len(res.Failures) != 1 {
			return nil, fmt.Errorf("recorded %d recoveries, want 1", len(res.Failures))
		}
		f := res.Failures[0]
		restores := 0
		for _, s := range res.Merged.Timeline {
			if s.Write || !strings.HasPrefix(res.Merged.Names[s.ID], checkpointDir+"/") {
				continue
			}
			restores++
			if s.Start < f.FailSec {
				return nil, fmt.Errorf("restore read at %.6fs precedes the failure at %.6fs", s.Start, f.FailSec)
			}
		}
		if restores == 0 {
			return nil, fmt.Errorf("no restore reads on the merged timeline")
		}
		o, err := clusterOutcome(tr, rankSnapshots(res), res.Merged, res.WallSeconds)
		if err != nil {
			return nil, err
		}
		o.Counts["failover.restore_bytes"] = float64(f.RestoreBytes)
		o.Counts["failover.downtime_s"] = f.RejoinSec - f.FailSec
		return o, nil
	}, nil
}

// dataservice-jobs: a fleet of 4 data workers serves 256 concurrent jobs,
// each an independently shuffled epoch over STREAM(ImageNet), through a
// peer-served cache holding twice the corpus; then the merged log
// round-trips.
func setupDataserviceJobs(seed int64, scale float64, tr *tracer) (func() (*outcome, error), error) {
	end := tr.begin("platform.boot")
	c := platform.NewKebnekaiseCluster(4, platform.Options{PreloadDarshan: true})
	end()
	end = tr.begin("workload.build")
	d, err := workload.BuildStreamImageNet(c.FS, seeded(workload.StreamImageNetSpec(platform.KebnekaiseLustre+"/dsvc", 0.025*scale), seed))
	end()
	if err != nil {
		return nil, err
	}
	jobs := make([]dataservice.JobSpec, max(4, int(256*scale)))
	for i := range jobs {
		jobs[i] = dataservice.JobSpec{
			Name: fmt.Sprintf("j%03d", i), Paths: d.Paths,
			Shuffle: baseShuffle + seed + int64(i), Batch: 8,
		}
	}
	cfg := dataservice.Config{MapFn: workload.ImageNetMap, Threads: 2, CacheBytes: 2 * d.Total(), PeerServing: true}

	return func() (*outcome, error) {
		end := tr.begin("sim.run")
		res, err := dataservice.Run(c, jobs, cfg)
		end()
		if err != nil {
			return nil, err
		}
		var wait int64
		for _, j := range res.Jobs {
			if j.Batches != j.ExpectedBatches {
				return nil, fmt.Errorf("job %s delivered %d batches, its leases imply %d", j.Name, j.Batches, j.ExpectedBatches)
			}
			if j.Bytes != j.ColdBytes {
				return nil, fmt.Errorf("job %s consumed %d bytes of a %d-byte epoch", j.Name, j.Bytes, j.ColdBytes)
			}
			wait += j.WaitNs
		}
		o, err := clusterOutcome(tr, res.PerWorker, res.Merged, res.WallSeconds)
		if err != nil {
			return nil, err
		}
		if res.PFSBytesRead > 0 {
			o.Counts["dataservice.dedup_x"] = float64(res.TotalColdBytes()) / float64(res.PFSBytesRead)
		}
		o.Counts["dataservice.wait_s"] = sim.Seconds(wait)
		o.Counts["dispatcher.busy_s"] = sim.Seconds(res.Dispatcher.BusyNs)
		cacheCounts(o, res.CacheStats)
		return o, nil
	}, nil
}
