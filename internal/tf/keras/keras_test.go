package keras_test

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/keras"
	"repro/internal/tf/profiler"
	"repro/internal/tf/tfdata"
	"repro/internal/workload"
)

func buildStream(m *platform.Machine, n int, size int64) *tfdata.Dataset {
	paths := make([]string, n)
	for i := range paths {
		p := platform.GreendogHDDPath + "/k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		m.FS.CreateFile(p, size)
		paths[i] = p
	}
	return tfdata.FromFiles(m.Env, paths)
}

func run(t *testing.T, m *platform.Machine, fn func(th *sim.Thread)) {
	t.Helper()
	m.K.Spawn("main", fn)
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFitRunsRequestedSteps(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	ds := buildStream(m, 64, 10_000).Map(workload.StreamMap, 4).Batch(8).Prefetch(2)
	model := workload.MalwareCNN()
	run(t, m, func(th *sim.Thread) {
		it, err := ds.MakeIterator()
		if err != nil {
			t.Fatal(err)
		}
		h, err := model.Fit(th, m.Env, it, keras.FitOptions{Steps: 5})
		if err != nil {
			t.Fatal(err)
		}
		if h.StepsRun != 5 || h.SamplesSeen != 40 {
			t.Fatalf("steps=%d samples=%d", h.StepsRun, h.SamplesSeen)
		}
		if h.Duration() <= 0 {
			t.Fatal("no time passed")
		}
		if len(h.StepWaitNs) != 5 || len(h.StepComputeNs) != 5 {
			t.Fatal("step series wrong length")
		}
	})
}

func TestFitStopsAtDatasetEnd(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	ds := buildStream(m, 16, 1000).Map(workload.StreamMap, 2).Batch(8)
	model := workload.MalwareCNN()
	run(t, m, func(th *sim.Thread) {
		it, _ := ds.MakeIterator()
		h, err := model.Fit(th, m.Env, it, keras.FitOptions{Steps: 100})
		if err != nil {
			t.Fatal(err)
		}
		if h.StepsRun != 2 {
			t.Fatalf("steps = %d, want 2 (dataset exhausted)", h.StepsRun)
		}
	})
}

func TestFitExhaustedRankKeepsJoiningCollective(t *testing.T) {
	// Two lockstep trainers share a 2-party gradient barrier, but one
	// iterator exhausts after 2 of the 5 requested steps. The short rank
	// must keep joining the collective for its remaining slots — otherwise
	// the peer parks at the barrier forever and the kernel deadlocks.
	m := platform.NewGreendog(platform.Options{})
	dsShort := buildStream(m, 16, 1000).Map(workload.StreamMap, 2).Batch(8)
	paths := make([]string, 40)
	for i := range paths {
		p := platform.GreendogHDDPath + "/long" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		m.FS.CreateFile(p, 1000)
		paths[i] = p
	}
	dsLong := tfdata.FromFiles(m.Env, paths).Map(workload.StreamMap, 2).Batch(8)

	bar := sim.NewBarrier(2)
	await := func(th *sim.Thread, _ int) { bar.Await(th) }

	histories := make([]*keras.History, 2)
	for i, ds := range []*tfdata.Dataset{dsShort, dsLong} {
		i, ds := i, ds
		m.K.Spawn("trainer", func(th *sim.Thread) {
			it, err := ds.MakeIterator()
			if err != nil {
				t.Error(err)
				return
			}
			h, err := workload.MalwareCNN().Fit(th, m.Env, it, keras.FitOptions{
				Steps: 5, AllReduce: await,
			})
			if err != nil {
				t.Error(err)
				return
			}
			histories[i] = h
		})
	}
	if err := m.K.Run(); err != nil {
		t.Fatalf("lockstep fit deadlocked: %v", err)
	}
	if histories[0].StepsRun != 2 {
		t.Fatalf("short rank ran %d steps, want 2", histories[0].StepsRun)
	}
	if histories[1].StepsRun != 5 {
		t.Fatalf("long rank ran %d steps, want 5", histories[1].StepsRun)
	}
	// The drained barrier waits count as synchronization, not busy time:
	// the short rank records one sync sample per requested step.
	if got := len(histories[0].StepSyncNs); got != 5 {
		t.Fatalf("short rank recorded %d sync samples, want 5", got)
	}
	if histories[0].SyncNs() <= 0 {
		t.Fatal("short rank's barrier waits were not accounted as sync time")
	}
}

func TestTensorBoardCallbackOpensAndClosesWindow(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	ds := buildStream(m, 80, 5000).Map(workload.StreamMap, 4).Batch(8).Prefetch(2)
	model := workload.MalwareCNN()
	tb := keras.NewTensorBoard(2, 4)
	run(t, m, func(th *sim.Thread) {
		it, _ := ds.MakeIterator()
		if _, err := model.Fit(th, m.Env, it, keras.FitOptions{Steps: 10, Callbacks: []keras.Callback{tb}}); err != nil {
			t.Fatal(err)
		}
	})
	if tb.Err != nil {
		t.Fatal(tb.Err)
	}
	if tb.Space == nil {
		t.Fatal("no profile collected")
	}
	host := tb.Space.FindPlane(profiler.HostPlaneName)
	if host == nil {
		t.Fatal("host plane missing")
	}
	// Train-step events for batches 2..4 at least.
	var trainSteps int
	for _, l := range host.Lines {
		for _, e := range l.Events {
			if e.Name == "train_step" {
				trainSteps++
			}
		}
	}
	if trainSteps != 3 {
		t.Fatalf("train_step events = %d, want 3 (batches 2-4)", trainSteps)
	}
	if m.Env.Prof.Sessions != 1 {
		t.Fatalf("sessions = %d", m.Env.Prof.Sessions)
	}
}

func TestTensorBoardWindowClosedAtTrainEnd(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	ds := buildStream(m, 40, 1000).Map(workload.StreamMap, 2).Batch(8)
	model := workload.MalwareCNN()
	tb := keras.NewTensorBoard(1, 999) // stop batch beyond the run
	run(t, m, func(th *sim.Thread) {
		it, _ := ds.MakeIterator()
		model.Fit(th, m.Env, it, keras.FitOptions{Steps: 3, Callbacks: []keras.Callback{tb}})
	})
	if tb.Space == nil {
		t.Fatal("profile not flushed at train end")
	}
}

func TestModelCheckpointEveryStep(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	ds := buildStream(m, 200, 2000).Map(workload.StreamMap, 4).Batch(8).Prefetch(2)
	model := workload.AlexNet()
	mc := keras.NewModelCheckpoint(platform.GreendogSSDPath, 1)
	run(t, m, func(th *sim.Thread) {
		it, _ := ds.MakeIterator()
		if _, err := model.Fit(th, m.Env, it, keras.FitOptions{Steps: 10, Callbacks: []keras.Callback{mc}}); err != nil {
			t.Fatal(err)
		}
	})
	if len(mc.Results) != 10 {
		t.Fatalf("checkpoints = %d", len(mc.Results))
	}
	// The paper's Fig. 6: ~1,400 fwrite calls for 10 checkpoints.
	total := mc.TotalFwrites()
	if total < 1200 || total > 1600 {
		t.Fatalf("total fwrites = %d, want ~1400", total)
	}
}

func TestInputBoundFraction(t *testing.T) {
	h := &keras.History{
		StepWaitNs:    []int64{90, 90},
		StepComputeNs: []int64{10, 10},
	}
	if got := h.InputBoundFraction(); got != 0.9 {
		t.Fatalf("InputBoundFraction = %v", got)
	}
	empty := &keras.History{}
	if empty.InputBoundFraction() != 0 {
		t.Fatal("empty history should be 0")
	}
}

func TestGPUSerializesKernels(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	gpu := m.Env.GPU
	m.K.Spawn("a", func(th *sim.Thread) { gpu.Launch(th, "k1", 10*sim.Millisecond) })
	m.K.Spawn("b", func(th *sim.Thread) { gpu.Launch(th, "k2", 10*sim.Millisecond) })
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if m.K.Now() != 20*sim.Millisecond {
		t.Fatalf("two kernels took %dns, want serialized 20ms", m.K.Now())
	}
	if busy := gpu.Station.Busy(m.K.Now()); busy != 20*sim.Millisecond {
		t.Fatalf("busy = %d", busy)
	}
}

func TestFitInvalidSteps(t *testing.T) {
	m := platform.NewGreendog(platform.Options{})
	model := workload.MalwareCNN()
	run(t, m, func(th *sim.Thread) {
		if _, err := model.Fit(th, m.Env, nil, keras.FitOptions{Steps: 0}); err == nil {
			t.Fatal("expected error")
		}
	})
}

func TestModelParamBytes(t *testing.T) {
	an := workload.AlexNet()
	if got := an.ParamBytes(); got < 230<<20 || got > 245<<20 {
		t.Fatalf("AlexNet params = %d bytes", got)
	}
	if an.Optimizer.Name != "sgd" || an.Optimizer.LearningRate != 0.01 || an.Optimizer.Momentum != 0 {
		t.Fatalf("optimizer = %+v", an.Optimizer)
	}
	if an.Loss != "categorical_crossentropy" {
		t.Fatalf("loss = %s", an.Loss)
	}
}
