package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dstat"
	"repro/internal/platform"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// paperWorkload is one row of the paper's Table II: everything that decides
// what a single-node paper run is. Every table and figure of §IV–§V builds
// its runs from these rows through setup.
type paperWorkload struct {
	name   string // Table II name
	system string // Table II system
	boot   func(platform.Options) *platform.Machine
	// dir is where the dataset is generated, under the system's data mount.
	dir   string
	spec  func(dir string, scale float64) workload.DatasetSpec
	build func(*vfs.FS, workload.DatasetSpec) (*workload.Dataset, error)
	mapFn tfdata.MapFunc
	model func() *keras.Model // nil for STREAM: no model, no compute
	batch int
	// threads is Table II's thread ladder; a run defaults to its first rung.
	threads  []int
	prefetch int
	// paperSteps is STREAM's paper step count, scaled by Config.steps; 0
	// means one full epoch of len(paths)/batch steps (at least one).
	paperSteps int
	// manualEvery restarts profiling every N steps (STREAM's manual
	// method); 0 profiles every step with the automatic TensorBoard
	// callback.
	manualEvery int
}

var (
	imageNet = &paperWorkload{
		name: "ImageNet", system: "Kebnekaise", boot: platform.NewKebnekaise,
		dir:  platform.KebnekaiseLustre + "/imagenet",
		spec: workload.ImageNetSpec, build: workload.BuildImageNet,
		mapFn: workload.ImageNetMap, model: workload.AlexNet,
		batch: 256, threads: []int{1, 28}, prefetch: 10,
	}
	kaggle = &paperWorkload{
		name: "Kaggle BIG 2015", system: "Greendog", boot: platform.NewGreendog,
		dir:  platform.GreendogHDDPath + "/malware",
		spec: workload.MalwareSpec, build: workload.BuildMalware,
		mapFn: workload.MalwareMap, model: workload.MalwareCNN,
		batch: 32, threads: []int{1, 16}, prefetch: 10,
	}
	streamImageNet = &paperWorkload{
		name: "STREAM(ImageNet)", system: "Greendog", boot: platform.NewGreendog,
		dir:  platform.GreendogHDDPath + "/stream-in",
		spec: workload.StreamImageNetSpec, build: workload.BuildStreamImageNet,
		mapFn: workload.StreamMap,
		batch: 128, threads: []int{16}, prefetch: 10, paperSteps: 100, manualEvery: 5,
	}
	streamMalware = &paperWorkload{
		name: "STREAM(Malware)", system: "Greendog", boot: platform.NewGreendog,
		dir:  platform.GreendogHDDPath + "/stream-mw",
		spec: workload.StreamMalwareSpec, build: workload.BuildStreamMalware,
		mapFn: workload.StreamMap,
		batch: 128, threads: []int{16}, prefetch: 10, paperSteps: 50, manualEvery: 5,
	}
)

// paperWorkloads is Table II in row order.
var paperWorkloads = []*paperWorkload{streamImageNet, streamMalware, kaggle, imageNet}

// runOpts are one figure's departures from its row's Table II
// configuration. The zero value runs the row as Table II states it,
// profiled the row's way with tf-Darshan registered.
type runOpts struct {
	threads int // 0: the first rung of the thread ladder
	batch   int // 0: the row's batch
	// overhead runs the paper's 10-step overhead rule (Figs. 5/6) in place
	// of a full epoch; STREAM keeps its paper step count.
	overhead    bool
	noProfiler  bool // no profiling session at all
	noTfDarshan bool // leave tf-Darshan unregistered
	// checkpointEvery writes a checkpoint every N steps to the checkpoint
	// mount (Fig. 6); 0 writes none.
	checkpointEvery int
	// dstat samples every disk of the machine in the background.
	dstat bool
}

// setup boots the row's system, generates its dataset and returns the run
// the overrides describe.
func (w *paperWorkload) setup(c Config, o runOpts) (*trainSetup, error) {
	m := c.boot(w.boot(platform.Options{}))
	ts := &trainSetup{
		machine: m, mapFn: w.mapFn, threads: w.threads[0], batch: w.batch,
		prefetch: w.prefetch, shuffle: c.shuffleSeed(),
		checkpointEvery: o.checkpointEvery,
	}
	if !o.noTfDarshan {
		ts.handle = registerTfDarshan(m)
	}
	d, err := w.build(m.FS, w.spec(w.dir, c.Scale))
	if err != nil {
		return nil, err
	}
	ts.data = d
	if w.model != nil {
		ts.model = w.model()
	}
	if o.threads > 0 {
		ts.threads = o.threads
	}
	if o.batch > 0 {
		ts.batch = o.batch
	}
	epoch := len(d.Paths) / ts.batch
	switch {
	case w.paperSteps > 0:
		ts.steps = c.steps(w.paperSteps)
	case o.overhead && (epoch < 1 || epoch >= 10):
		// The paper's 10-step overhead runs, capped only by a shorter
		// non-empty epoch.
		ts.steps = 10
	default:
		ts.steps = max(1, epoch)
	}
	if !o.noProfiler {
		ts.profileAll = w.manualEvery == 0
		ts.manualEvery = w.manualEvery
	}
	if o.dstat {
		ts.sampler = dstat.New(m.Devices())
	}
	return ts, nil
}

// threadLadder renders the row's thread ladder as Table II prints it.
func (w *paperWorkload) threadLadder() string {
	rungs := make([]string, len(w.threads))
	for i, t := range w.threads {
		rungs[i] = fmt.Sprint(t)
	}
	return strings.Join(rungs, ", ")
}
