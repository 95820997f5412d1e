// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV–§V): the Darshan/tf-Darshan feature comparison (Table
// I), the dataset characteristics (Table II), the dstat-vs-tf-Darshan
// bandwidth validation (Figs. 3/4), the profiling overhead study (Fig. 5),
// the checkpoint STDIO capture (Fig. 6), the ImageNet and malware case
// studies with their threading and staging optimizations (Figs. 7–11), and
// the whole-run disk-activity comparison (Fig. 12), plus the design
// ablations of its discussion (§VII).
//
// Each experiment is a function from Config to a Result that renders the
// same rows/series the paper reports. Config.Scale shrinks datasets and
// step counts proportionally so the suite runs at laptop scale in tests.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dstat"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Scale multiplies dataset sizes and step counts (1.0 = paper scale).
	Scale float64
	// Seed perturbs the deterministic shuffles (0 = paper default).
	Seed int64
	// VerifyContent disables the zero-materialization read fast path:
	// every read materializes its bytes and checksums them against the VFS
	// content generator. Simulated results are identical either way — this
	// mode exists to prove exactly that (see the equivalence test) — but
	// runs are ~an order of magnitude slower in host time.
	VerifyContent bool
	// Ranks pins the cluster experiments to one rank count, and the data
	// service experiment to one fleet size (cmd/tfdarshan -ranks); 0 runs
	// their default ladders.
	Ranks int
	// Parallel is the number of simulation kernels run concurrently on
	// host CPUs (cmd/tfdarshan -parallel): 0 and 1 run serially, negative
	// means one worker per core. Kernels are independent, so results are
	// byte-identical at any setting.
	Parallel int
}

// TestConfig runs the suite at a laptop-test scale.
func TestConfig() Config { return Config{Scale: 0.02} }

func (c Config) shuffleSeed() int64 { return 20200812 + c.Seed }

// boot applies cross-cutting config to a freshly built machine; every
// experiment that performs reads routes machine construction through it.
func (c Config) boot(m *platform.Machine) *platform.Machine {
	m.Env.VerifyContent = c.VerifyContent
	return m
}

// steps scales a paper step count, keeping at least one step.
func (c Config) steps(paper int) int {
	s := int(float64(paper) * c.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Result is a regenerated table or figure.
type Result interface {
	// Render prints the rows/series the paper reports.
	Render() string
	// Metrics returns the headline numbers (tfdarshan metrics, goldens).
	Metrics() map[string]float64
}

// Runner regenerates one artifact.
type Runner struct {
	ID          string
	Description string
	Run         func(Config) (Result, error)
}

// All returns the experiment registry in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Darshan vs tf-Darshan feature comparison", func(c Config) (Result, error) { return Table1(c) }},
		{"table2", "dataset and configuration characteristics", func(c Config) (Result, error) { return Table2(c) }},
		{"fig3", "STREAM(ImageNet) bandwidth: dstat vs tf-Darshan", func(c Config) (Result, error) { return Fig3(c) }},
		{"fig4", "STREAM(Malware) bandwidth: dstat vs tf-Darshan", func(c Config) (Result, error) { return Fig4(c) }},
		{"fig5", "profiling overhead vs no profiler", func(c Config) (Result, error) { return Fig5(c) }},
		{"fig6", "checkpointing captured on the STDIO layer", func(c Config) (Result, error) { return Fig6(c) }},
		{"fig7a", "ImageNet profile, 1 thread", func(c Config) (Result, error) { return Fig7a(c) }},
		{"fig7b", "ImageNet profile, 28 threads", func(c Config) (Result, error) { return Fig7b(c) }},
		{"fig8", "TraceViewer: zero-length terminating reads", func(c Config) (Result, error) { return Fig8(c) }},
		{"fig9", "Malware profile, 1 thread", func(c Config) (Result, error) { return Fig9(c) }},
		{"fig10", "TraceViewer: ReadFile vs POSIX segments", func(c Config) (Result, error) { return Fig10(c) }},
		{"fig11a", "Malware with 16 threads", func(c Config) (Result, error) { return Fig11a(c) }},
		{"fig11b", "Malware with small files staged to Optane", func(c Config) (Result, error) { return Fig11b(c) }},
		{"fig12", "dstat disk activity across configurations", func(c Config) (Result, error) { return Fig12(c) }},
		{"ablation-tfrecord", "§VII ablation: per-file reads vs TFRecord containers", func(c Config) (Result, error) { return AblationTFRecord(c) }},
		{"ablation-prefetch", "§VII ablation: prefetch depth", func(c Config) (Result, error) { return AblationPrefetch(c) }},
		{"ablation-autotune", "§VII ablation: probe-driven threading autotune", func(c Config) (Result, error) { return AblationAutotune(c) }},
		{"ranks", "distributed data-parallel scaling on shared Lustre", func(c Config) (Result, error) { return RanksExperiment(c) }},
		{"tune", "rank-aware autotuning and per-rank staging over merged logs", func(c Config) (Result, error) { return TuneExperiment(c) }},
		{"prefetch", "clairvoyant per-epoch prefetching over node NVMe caches", func(c Config) (Result, error) { return PrefetchExperiment(c) }},
		{"failover", "mid-epoch rank death, checkpoint rollback and restore read burst", func(c Config) (Result, error) { return FailoverExperiment(c) }},
		{"elastic", "elastic continue-on-failure vs rollback under a transient-fault ladder", func(c Config) (Result, error) { return ElasticExperiment(c) }},
		{"dataservice", "disaggregated tf.data service: concurrent-job ramp over a worker fleet", func(c Config) (Result, error) { return DataServiceExperiment(c) }},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// trainSetup describes one instrumented training (or STREAM) run.
type trainSetup struct {
	machine  *platform.Machine
	handle   *core.Handle
	data     *workload.Dataset
	mapFn    tfdata.MapFunc
	model    *keras.Model
	threads  int
	batch    int
	steps    int
	prefetch int
	shuffle  int64

	// profileAll attaches the TensorBoard callback over every step
	// (automatic mode).
	profileAll bool
	// manualEvery opens a manual profiling window every N steps
	// (Figs. 3/4 mode); 0 disables.
	manualEvery int
	// checkpointEvery writes a checkpoint every N steps to the machine's
	// checkpoint mount (Fig. 6).
	checkpointEvery int
	// sampler runs dstat in the background when set.
	sampler *dstat.Sampler
}

// trainOutcome is everything a run produced.
type trainOutcome struct {
	history *keras.History
	tb      *keras.TensorBoard
	ckpt    *keras.ModelCheckpoint
	// wallSeconds is the full virtual duration of the run.
	wallSeconds float64
}

// registerTfDarshan wires tf-Darshan into a machine's profiler.
func registerTfDarshan(m *platform.Machine) *core.Handle {
	cfg := core.DefaultTracerConfig()
	cfg.SizeOf = func(p string) (int64, bool) {
		ino, ok := m.FS.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}
	return core.Register(m.Env, cfg)
}

// run executes the setup to completion and returns the outcome.
func (ts *trainSetup) run() (*trainOutcome, error) {
	m := ts.machine
	out := &trainOutcome{}
	var cbs []keras.Callback
	// The checkpoint callback is registered ahead of TensorBoard so the
	// final step's checkpoint still falls inside the profiling window.
	if ts.checkpointEvery > 0 {
		out.ckpt = keras.NewModelCheckpoint(m.CkptMount.Prefix+"/ckpt", ts.checkpointEvery)
		cbs = append(cbs, out.ckpt)
	}
	if ts.profileAll {
		out.tb = keras.NewTensorBoard(1, ts.steps)
		cbs = append(cbs, out.tb)
	}
	if ts.sampler != nil {
		ts.sampler.Start(m.K)
	}
	var runErr error
	m.K.Spawn("trainer", func(t *sim.Thread) {
		defer func() {
			if ts.sampler != nil {
				ts.sampler.Stop()
			}
		}()
		ds := tfdata.FromFiles(m.Env, ts.data.Paths)
		if ts.shuffle != 0 {
			ds = ds.Shuffle(ts.shuffle)
		}
		ds = ds.Map(ts.mapFn, ts.threads).Batch(ts.batch).Prefetch(ts.prefetch)
		it, err := ds.MakeIterator()
		if err != nil {
			runErr = err
			return
		}
		if ts.manualEvery > 0 || ts.model == nil {
			// STREAM runs have no model; manual-mode runs drive the
			// profiler windows themselves.
			out.history, runErr = ts.runManual(t, it)
			return
		}
		out.history, runErr = ts.model.Fit(t, m.Env, it, keras.FitOptions{
			Steps: ts.steps, Callbacks: cbs,
		})
	})
	if err := m.K.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if out.tb != nil && out.tb.Err != nil {
		return nil, out.tb.Err
	}
	out.wallSeconds = sim.Seconds(m.K.Now())
	return out, nil
}

// runManual is the Figs. 3/4 loop: restart profiling every manualEvery
// steps, deriving a bandwidth sample per window. The window statistics are
// extracted in situ (no TensorBoard export), the paper's manual mode.
func (ts *trainSetup) runManual(t *sim.Thread, it *tfdata.Iterator) (*keras.History, error) {
	m := ts.machine
	h := &keras.History{StartNs: t.Now()}
	inWindow := 0
	windowOpen := false
	for step := 1; step <= ts.steps; step++ {
		if ts.manualEvery > 0 && !windowOpen {
			if _, err := m.Env.Prof.Start(t); err != nil {
				return nil, err
			}
			windowOpen = true
			inWindow = 0
		}
		waitStart := t.Now()
		batch, ok := it.Next(t)
		wait := t.Now() - waitStart
		if !ok {
			break
		}
		computeStart := t.Now()
		if ts.model != nil && ts.model.StepTime != nil && m.Env.GPU != nil {
			m.Env.GPU.Launch(t, "step", ts.model.StepTime(len(batch.Samples)))
		}
		h.StepsRun++
		h.StepWaitNs = append(h.StepWaitNs, wait)
		h.StepComputeNs = append(h.StepComputeNs, t.Now()-computeStart)
		h.SamplesSeen += int64(len(batch.Samples))
		h.BytesSeen += batch.Bytes
		inWindow++
		if inWindow == ts.manualEvery {
			if _, err := m.Env.Prof.Stop(t); err != nil {
				return nil, err
			}
			windowOpen = false
		}
	}
	if windowOpen {
		if _, err := m.Env.Prof.Stop(t); err != nil {
			return nil, err
		}
	}
	it.Close(t)
	h.EndNs = t.Now()
	return h, nil
}

// kvTable renders aligned key/value rows.
func kvTable(rows [][2]string) string {
	w := 0
	for _, r := range rows {
		if len(r[0]) > w {
			w = len(r[0])
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-*s  %s\n", w, r[0], r[1])
	}
	return b.String()
}

// sortedKeys returns map keys in stable order.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RenderMetrics prints metrics deterministically.
func RenderMetrics(m map[string]float64) string {
	var b strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "  %-40s %14.4f\n", k, m[k])
	}
	return b.String()
}
