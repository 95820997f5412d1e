package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// This file is the sweep layer of the cluster experiments (ranks, tune,
// prefetch, failover, elastic, dataservice). Like the paper's case
// studies, each one sweeps a setting, runs one simulated cluster per
// point, reads the Darshan counters and keeps or rejects the result. The
// shared pieces live here: the cluster runner, the ladder helper, the
// column table every experiment renders and publishes through, and the
// invariants more than one experiment checks.

// DefaultRankSweep is the rank ladder of the cluster experiments.
var DefaultRankSweep = []int{1, 2, 4, 8}

// ladder resolves the rank counts (or fleet sizes) to sweep: the -ranks
// override or a copy of the default ladder.
func (c Config) ladder(defaults []int) []int {
	if c.Ranks > 0 {
		return []int{c.Ranks}
	}
	return slices.Clone(defaults)
}

// sweep runs every point of a ladder and tabulates their rows in ladder
// order. Points build independent clusters, so they run concurrently under
// Config.Parallel, byte-identical to a serial run.
func sweep[P, R any](c Config, spec *tableSpec[R], points []P, run func(P) ([]R, error)) (*table[R], error) {
	groups := make([][]R, len(points))
	err := runIndexed(c.Parallel, len(points), func(i int) error {
		var err error
		groups[i], err = run(points[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return &table[R]{spec, slices.Concat(groups...)}, nil
}

// wrapErr prefixes a non-nil *err with the sweep point it came from.
func wrapErr(err *error, format string, args ...any) {
	if *err != nil {
		*err = fmt.Errorf(format+": %w", append(args, *err)...)
	}
}

// untunedClusterOptions is the sweeps' fixed baseline configuration: the
// per-rank parameters every rank count of the ranks table runs with, and
// the starting point every other cluster run shapes.
func untunedClusterOptions(c Config) distributed.Options {
	return distributed.Options{
		Threads: 4, Batch: 32, Prefetch: 10,
		Shuffle: c.shuffleSeed(),
		Model:   workload.AlexNet, MapFn: workload.ImageNetMap,
		VerifyContent: c.VerifyContent,
	}
}

// clusterRun is one job on a fresh Kebnekaise cluster holding the ImageNet
// corpus on its shared Lustre mount. Every run and every tuning probe
// builds its own cluster, so runs stay independent and deterministic.
type clusterRun struct {
	ranks int
	// faults is injected into the file system before the run.
	faults *vfs.FaultPlan
	// staging migrates each rank's advised files to its node-local NVMe
	// before the run (the generated namespace is deterministic, so plans
	// transfer across cluster instances).
	staging []*core.StagingAdvice
	// prefetch, when set, runs per-node prefetch daemons over the run plan
	// (prefetch.RunCluster) instead of the plain driver.
	prefetch *prefetch.Config
	// shape edits the untuned baseline options.
	shape func(*distributed.Options)
	// sameAs, when set, is a reference run whose bytes this run must read.
	sameAs *clusterOutcome
}

// clusterOutcome is a completed clusterRun.
type clusterOutcome struct {
	*distributed.Result
	cluster *platform.Cluster
	paths   []string
	// reports are the prefetch daemons' per-node counters.
	reports []prefetch.NodeReport
}

// imagenetCluster boots the cluster and generates the ImageNet corpus.
func (c Config) imagenetCluster(ranks int, stdio bool) (*platform.Cluster, []string, error) {
	opts := platform.Options{PreloadDarshan: true}
	if stdio {
		cfg := darshan.DefaultConfig()
		cfg.DXTStdio = true
		opts.DarshanConfig = &cfg
	}
	cluster := platform.NewKebnekaiseCluster(ranks, opts)
	d, err := workload.BuildImageNet(cluster.FS, workload.ImageNetSpec(platform.KebnekaiseLustre+"/imagenet", c.Scale))
	if err != nil {
		return nil, nil, err
	}
	return cluster, d.Paths, nil
}

// runCluster executes one cluster run and checks that the cross-rank merge
// conserved every byte the ranks read: a violated reduction fails the
// experiment rather than mis-reporting bandwidth.
func (c Config) runCluster(j clusterRun) (*clusterOutcome, error) {
	opts := untunedClusterOptions(c)
	if j.shape != nil {
		j.shape(&opts)
	}
	// A checkpointing run traces DXT stdio, so checkpoint writes and
	// restore reads appear on the merged timeline (plain DXT covers POSIX
	// only, and checkpoints ride the STDIO layer — Fig. 6).
	cluster, paths, err := c.imagenetCluster(j.ranks, opts.Checkpoint.Pattern != distributed.CkptNone)
	if err != nil {
		return nil, err
	}
	if j.faults != nil {
		cluster.FS.InjectFaults(*j.faults)
	}
	// Each rank's advised files move to its node-local fast mount (the
	// between-runs `mv` of Fig. 11b, per node).
	for r, adv := range j.staging {
		if _, err := core.ApplyStaging(cluster.FS, adv, cluster.Nodes[r].FastMount); err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	out := &clusterOutcome{cluster: cluster, paths: paths}
	if j.prefetch != nil {
		out.Result, out.reports, err = prefetch.RunCluster(cluster, paths, opts, *j.prefetch, opts.Epochs)
	} else {
		out.Result, err = distributed.Run(cluster, paths, opts)
	}
	if err != nil {
		return nil, err
	}
	var sum int64
	for _, r := range out.PerRank {
		sum += r.Snapshot.TotalPosix(darshan.POSIX_BYTES_READ)
	}
	if merged := out.bytesRead(); merged != sum {
		return nil, fmt.Errorf("merged bytes %d != per-rank sum %d", merged, sum)
	}
	if j.sameAs != nil {
		return out, sameEpoch(j.sameAs, out)
	}
	return out, nil
}

// runClusters executes independent cluster runs in order, stopping at the
// first error.
func (c Config) runClusters(runs ...clusterRun) ([]*clusterOutcome, error) {
	outs := make([]*clusterOutcome, len(runs))
	for i, j := range runs {
		var err error
		if outs[i], err = c.runCluster(j); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// epochSteps is the lockstep step count of one untuned epoch, known before
// any run so a failure schedule can be placed inside it; an epoch shorter
// than minSteps has no room for one.
func (c Config) epochSteps(ranks, minSteps int) (int, error) {
	_, paths, err := c.imagenetCluster(ranks, false)
	if err != nil {
		return 0, err
	}
	opts := untunedClusterOptions(c)
	plan, err := distributed.NewPlan(paths, opts.Shuffle, ranks, 1, opts.Batch)
	if err == nil && plan.Steps < minSteps {
		err = fmt.Errorf("%d steps is too short to place a failure (raise -scale)", plan.Steps)
	}
	if err != nil {
		return 0, err
	}
	return plan.Steps, nil
}

// bytesRead is the merged POSIX bytes read across ranks.
func (o *clusterOutcome) bytesRead() int64 { return o.Merged.TotalPosix(darshan.POSIX_BYTES_READ) }

// aggMBps is aggregate POSIX read bandwidth across ranks (merged bytes /
// wall time).
func (o *clusterOutcome) aggMBps() float64 { return ratio(float64(o.bytesRead())/1e6, o.WallSeconds) }

// sizeOf resolves a file size on the run's cluster.
func (o *clusterOutcome) sizeOf(p string) (int64, bool) {
	ino, ok := o.cluster.FS.Lookup(p)
	if !ok {
		return 0, false
	}
	return ino.Size, true
}

// clusterStaging runs the untuned profile pass and derives the per-rank
// staging plans from its job-end snapshots (metadata-bound objective,
// node NVMe capacity), verifying each plan stages only files of that
// rank's shard, within the capacity. A violated plan fails the experiment
// rather than silently staging another rank's data.
func (c Config) clusterStaging(ranks int) (*clusterOutcome, []*core.StagingAdvice, error) {
	prof, err := c.runCluster(clusterRun{ranks: ranks})
	if err != nil {
		return nil, nil, err
	}
	snaps := make([]*darshan.Log, len(prof.PerRank))
	for r := range prof.PerRank {
		snaps[r] = prof.PerRank[r].Snapshot
	}
	capacity := prof.cluster.Nodes[0].Optane.Capacity()
	advices := core.AdviseClusterStaging(snaps, core.ClusterStagingOptions{
		PerNodeCapacity: capacity,
		Objective:       core.StagingMetadataBound,
		SizeOf:          prof.sizeOf,
	})
	shards := distributed.Shards(prof.paths, c.shuffleSeed(), len(snaps))
	for r, adv := range advices {
		slices.Sort(shards[r])
		for _, p := range adv.Files {
			if _, ok := slices.BinarySearch(shards[r], p); !ok {
				return nil, nil, fmt.Errorf("rank %d plan stages %s outside its shard", r, p)
			}
		}
		if adv.Bytes > capacity {
			return nil, nil, fmt.Errorf("rank %d plan (%d bytes) exceeds node NVMe capacity %d", r, adv.Bytes, capacity)
		}
	}
	return prof, advices, nil
}

// sameEpoch checks that a run read exactly the reference run's bytes: a
// faster configuration must still read the same epochs.
func sameEpoch(ref, run *clusterOutcome) error {
	if got, want := run.bytesRead(), ref.bytesRead(); got != want {
		return fmt.Errorf("run read %d bytes, baseline %d — not the same epochs", got, want)
	}
	return nil
}

// stragglerSpread returns each rank's busy seconds (epoch time minus
// synchronization stalls) and their spread, (max-min)/mean in percent.
func stragglerSpread(res *distributed.Result) (busy []float64, pct float64) {
	for r := range res.PerRank {
		busy = append(busy, float64(res.PerRank[r].BusyNs())/1e9)
	}
	if s := stats.Summarize(busy); s.Mean > 0 {
		pct = (s.Max - s.Min) / s.Mean * 100
	}
	return busy, pct
}

// oneRecovery returns a failure run's record: it must have recovered
// exactly once.
func oneRecovery(res *distributed.Result) (distributed.FailureRecord, error) {
	if len(res.Failures) != 1 {
		return distributed.FailureRecord{}, fmt.Errorf("failure run reported %d recoveries, want 1", len(res.Failures))
	}
	return res.Failures[0], nil
}

// restoredAfterFailure returns the record of a run that recovered once
// (oneRecovery) and read checkpoint files back only after the failure
// instant: a checkpoint read on the merged timeline before the death
// means the recovery protocol leaked I/O into healthy training.
func restoredAfterFailure(res *distributed.Result) (distributed.FailureRecord, error) {
	f, err := oneRecovery(res)
	if err != nil {
		return f, err
	}
	m, earliest := res.Merged, math.Inf(1)
	for _, s := range m.Timeline {
		if !s.Write && strings.HasPrefix(m.Names[s.ID], failoverCkptDir+"/") {
			earliest = min(earliest, s.Start)
		}
	}
	if math.IsInf(earliest, 1) {
		return f, errors.New("no checkpoint reads on the merged timeline")
	}
	if earliest < f.FailSec {
		return f, fmt.Errorf("checkpoint read at %.3fs precedes the failure at %.3fs", earliest, f.FailSec)
	}
	return f, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// column is one declared column of a sweep table.
type column[R any] struct {
	// head is right-aligned to width (left-aligned if negative). A column
	// without a head is published as a metric only.
	head  string
	width int
	// verb formats cell(row), e.g. "%10.2f" or "%11.1f%%".
	verb string
	cell func(R) any
	// metric, when set, publishes the column under the row's key prefix:
	// value(row) if set, else the cell.
	metric string
	value  func(R) float64
}

// tableSpec is what a sweep experiment declares once: its title, columns
// and metric keys.
type tableSpec[R any] struct {
	title string
	cols  []column[R]
	// key is a row's metric-key prefix ("ranks4_", "ranks4_cap025_").
	key func(R) string
	// extra, when set, adds per-point and headline metrics.
	extra func(rows []R, out map[string]float64)
	// footer, when set, renders a line after row i.
	footer func(rows []R, i int) string
}

// table is a sweep experiment's Result: one row per rung, rendered and
// published through its spec's columns.
type table[R any] struct {
	*tableSpec[R]
	Rows []R
}

// Render implements Result.
func (t *table[R]) Render() string {
	cols := slices.DeleteFunc(slices.Clone(t.cols), func(col column[R]) bool { return col.head == "" })
	var b strings.Builder
	b.WriteString(t.title + "\n ")
	for _, col := range cols {
		fmt.Fprintf(&b, " %*s", col.width, col.head)
	}
	b.WriteString("\n")
	for i, r := range t.Rows {
		b.WriteString(" ")
		for _, col := range cols {
			fmt.Fprintf(&b, " "+col.verb, col.cell(r))
		}
		b.WriteString("\n")
		if t.footer != nil {
			b.WriteString(t.footer(t.Rows, i))
		}
	}
	return b.String()
}

// Metrics implements Result.
func (t *table[R]) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, r := range t.Rows {
		for _, col := range t.cols {
			if col.metric != "" {
				out[t.key(r)+col.metric] = col.metricValue(r)
			}
		}
	}
	if t.extra != nil {
		t.extra(t.Rows, out)
	}
	return out
}

// metricValue is the column's metric for row r: value(r), else the
// numeric cell.
func (col column[R]) metricValue(r R) float64 {
	if col.value != nil {
		return col.value(r)
	}
	switch v := col.cell(r).(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return col.cell(r).(float64)
}

// ranksKey is the metric-key prefix of a rank count.
func ranksKey(ranks int) string { return fmt.Sprintf("ranks%d_", ranks) }
