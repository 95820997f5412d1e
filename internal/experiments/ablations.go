package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/tfdata"
	"repro/internal/tf/tfio"
	"repro/internal/workload"
)

// This file holds the design ablations the paper's discussion (§VII)
// raises: packing samples into TFRecord containers versus per-file reads,
// the prefetch depth between input pipeline and accelerator, and how
// quickly a tf-Darshan-driven auto-tuner finds the threading knee. Their
// sizes are fixed rather than scaled by Config.Scale, so every scale
// reports the same numbers.

// runThread runs fn as the only thread of m's kernel to completion and
// returns the first error of either.
func runThread(m *platform.Machine, fn func(t *sim.Thread) error) error {
	var err error
	m.K.Spawn("ablation", func(t *sim.Thread) { err = fn(t) })
	if runErr := m.K.Run(); runErr != nil {
		return runErr
	}
	return err
}

// containerFiles and containerFileBytes size the container ablation's
// ImageNet-like small-file corpus.
const (
	containerFiles     = 2048
	containerFileBytes = 88 * 1024
)

// ContainerRow is one on-disk layout of the container ablation.
type ContainerRow struct {
	// Layout is "perfile" or "tfrecord".
	Layout  string
	PassSec float64
	MBps    float64
}

// ContainerResult is the TFRecord-vs-per-file ablation.
type ContainerResult = table[ContainerRow]

var containerTable = &tableSpec[ContainerRow]{
	title: fmt.Sprintf("§VII ablation: one pass over %d 88 KiB files on HDD, per-file reads vs TFRecord shards", containerFiles),
	cols: []column[ContainerRow]{
		{head: "layout", width: -8, verb: "%-8s", cell: func(r ContainerRow) any { return r.Layout }},
		{head: "pass(s)", width: 9, verb: "%9.2f", cell: func(r ContainerRow) any { return r.PassSec }},
		{head: "MB/s", width: 9, verb: "%9.2f", cell: func(r ContainerRow) any { return r.MBps }, metric: "MBps"},
	},
	key: func(r ContainerRow) string { return r.Layout + "_" },
	extra: func(rows []ContainerRow, out map[string]float64) {
		out["container_speedup_x"] = rows[0].PassSec / rows[1].PassSec
	},
}

// AblationTFRecord reads a small-file corpus once per file (the paper's
// measured configuration), then packs the same bytes into TFRecord shards
// and scans those ("One way to improve bandwidth performance is to use
// data containers such as TFRecord").
func AblationTFRecord(c Config) (*ContainerResult, error) {
	m := c.boot(platform.NewGreendog(platform.Options{}))
	paths := make([]string, containerFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/in/f%05d", platform.GreendogHDDPath, i)
		if _, err := m.FS.CreateFile(paths[i], containerFileBytes); err != nil {
			return nil, err
		}
	}
	var perFileSec, shardSec float64
	err := runThread(m, func(t *sim.Thread) error {
		t0 := t.Now()
		for _, p := range paths {
			if _, err := tfio.ReadFile(t, m.Env, p); err != nil {
				return err
			}
		}
		perFileSec = sim.Seconds(t.Now() - t0)
		shards, err := tfio.BuildTFRecordShards(t, m.Env, paths, platform.GreendogHDDPath+"/tfr", 64<<20)
		if err != nil {
			return err
		}
		t0 = t.Now()
		for _, s := range shards {
			if _, err := tfio.ScanShard(t, m.Env, s); err != nil {
				return err
			}
		}
		shardSec = sim.Seconds(t.Now() - t0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	totalMB := float64(containerFiles) * containerFileBytes / 1e6
	return &ContainerResult{containerTable, []ContainerRow{
		{"perfile", perFileSec, totalMB / perFileSec},
		{"tfrecord", shardSec, totalMB / shardSec},
	}}, nil
}

// ablationPrefetchDepths is the prefetch buffer ladder.
var ablationPrefetchDepths = []int{0, 1, 10}

// PrefetchDepthRow is one prefetch depth of the prefetch ablation.
type PrefetchDepthRow struct {
	Depth   int
	WallSec float64
}

// PrefetchDepthResult is the prefetch-depth ablation.
type PrefetchDepthResult = table[PrefetchDepthRow]

var prefetchDepthTable = &tableSpec[PrefetchDepthRow]{
	title: "§VII ablation: malware training on HDD by prefetch depth, 400 ms steps",
	cols: []column[PrefetchDepthRow]{
		{head: "prefetch", width: 8, verb: "%8d", cell: func(r PrefetchDepthRow) any { return r.Depth }},
		{head: "wall(s)", width: 9, verb: "%9.2f", cell: func(r PrefetchDepthRow) any { return r.WallSec }},
	},
	extra: func(rows []PrefetchDepthRow, out map[string]float64) {
		for _, r := range rows {
			out[fmt.Sprintf("wall_s_prefetch%d", r.Depth)] = r.WallSec
		}
		out["prefetch_speedup_x"] = rows[0].WallSec / rows[len(rows)-1].WallSec
	},
}

// AblationPrefetch sweeps the prefetch buffer depth with a compute step
// sized to roughly match mean batch production time. The measured effect
// is small and that is the finding: because map and batch stages run on
// their own threads (as tf.data's parallel map does), production overlaps
// training even with no prefetch buffer; the paper's prefetch-10 is
// conservative insurance against production burstiness, not the source of
// the overlap. In the paper's own configurations the pipelines are so
// I/O-bound that depth matters even less.
func AblationPrefetch(c Config) (*PrefetchDepthResult, error) {
	return sweep(c, prefetchDepthTable, ablationPrefetchDepths, func(depth int) ([]PrefetchDepthRow, error) {
		m := c.boot(platform.NewGreendog(platform.Options{}))
		d, err := workload.BuildMalware(m.FS, workload.MalwareSpec(platform.GreendogHDDPath+"/mw", 0.02))
		if err != nil {
			return nil, err
		}
		err = runThread(m, func(t *sim.Thread) error {
			it, err := tfdata.FromFiles(m.Env, d.Paths).Shuffle(1).
				Map(workload.MalwareMap, 1).Batch(8).Prefetch(depth).MakeIterator()
			if err != nil {
				return err
			}
			for {
				if _, ok := it.Next(t); !ok {
					break
				}
				// A step near mean batch production time: the bursty-parity regime.
				m.Env.GPU.Launch(t, "step", 400*sim.Millisecond)
			}
			it.Close(t)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("prefetch=%d: %w", depth, err)
		}
		return []PrefetchDepthRow{{depth, sim.Seconds(m.K.Now())}}, nil
	})
}

// TuneProbeRow is one probe window of the auto-tuning ablation.
type TuneProbeRow struct {
	Window  int
	Threads int
	MBps    float64
	// Chosen marks the thread count the tuner settled on.
	Chosen bool
}

// AutotuneResult is the auto-tuning ablation.
type AutotuneResult = table[TuneProbeRow]

var autotuneTable = &tableSpec[TuneProbeRow]{
	title: "§VII ablation: tf-Darshan-driven num_parallel_calls tuning, STREAM(ImageNet) on Lustre",
	cols: []column[TuneProbeRow]{
		{head: "window", width: 6, verb: "%6d", cell: func(r TuneProbeRow) any { return r.Window }},
		{head: "chosen", width: 6, verb: "%6s", cell: func(r TuneProbeRow) any {
			if r.Chosen {
				return "*"
			}
			return ""
		}},
		{head: "threads", width: 7, verb: "%7d", cell: func(r TuneProbeRow) any { return r.Threads }},
		{head: "MB/s", width: 9, verb: "%9.2f", cell: func(r TuneProbeRow) any { return r.MBps }},
	},
	extra: func(rows []TuneProbeRow, out map[string]float64) {
		out["probe_windows"] = float64(len(rows))
		for _, r := range rows {
			if r.Chosen {
				out["chosen_threads"] = float64(r.Threads)
			}
		}
	},
}

// AblationAutotune measures how many probe windows the auto-tuner needs to
// find the threading knee on the Kebnekaise Lustre platform (the §VII
// auto-tuning opportunity): each window profiles eight STREAM batches
// over a fresh 512-file corpus.
func AblationAutotune(c Config) (*AutotuneResult, error) {
	at := core.NewAutoTuner(1, 1, 28)
	probe := func(threads int) (float64, error) {
		m := c.boot(platform.NewKebnekaise(platform.Options{}))
		h := registerTfDarshan(m)
		paths := make([]string, 512)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s/at/f%04d", platform.KebnekaiseLustre, i)
			if _, err := m.FS.CreateFile(paths[i], 88*1024); err != nil {
				return 0, err
			}
		}
		err := runThread(m, func(t *sim.Thread) error {
			it, err := tfdata.FromFiles(m.Env, paths).Shuffle(1).
				Map(workload.StreamMap, threads).Batch(32).Prefetch(4).MakeIterator()
			if err != nil {
				return err
			}
			if _, err := m.Env.Prof.Start(t); err != nil {
				return err
			}
			for s := 0; s < 8; s++ {
				if _, ok := it.Next(t); !ok {
					break
				}
			}
			if _, err := m.Env.Prof.Stop(t); err != nil {
				return err
			}
			it.Close(t)
			return nil
		})
		if err != nil {
			return 0, err
		}
		return h.Last.ReadBandwidthMBps, nil
	}
	chosen, err := at.Tune(probe, 8)
	if err != nil {
		return nil, err
	}
	rows := make([]TuneProbeRow, len(at.History))
	marked := false
	for i, o := range at.History {
		rows[i] = TuneProbeRow{i + 1, o.Threads, o.BandwidthMBps, !marked && o.Threads == chosen}
		marked = marked || rows[i].Chosen
	}
	return &AutotuneResult{autotuneTable, rows}, nil
}
