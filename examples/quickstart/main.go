// Quickstart: profile a small training run with tf-Darshan and print the
// analysis.
//
// This walks the full public surface in ~60 lines: boot a simulated
// machine, create a dataset, register tf-Darshan with the TensorFlow-like
// profiler, train with the TensorBoard callback, and read the in-situ
// analysis tf-Darshan extracted from Darshan's buffers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tensorboard"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/workload"
)

// run trains 8 profiled steps over 256 image-like files and returns what
// the TensorBoard pages render: tf-Darshan's analysis of the profiling
// window plus the step history and trace.
func run() (*tensorboard.ProfileData, error) {
	// Boot the Greendog workstation: HDD + SSD + Optane, libc over a
	// virtual file system, Darshan installed as a loadable library.
	m := platform.NewGreendog(platform.Options{})

	// Register tf-Darshan as a profiler tracer. Attachment is lazy: the
	// GOT is patched when the first profiling session starts.
	cfg := core.DefaultTracerConfig()
	cfg.SizeOf = func(p string) (int64, bool) {
		ino, ok := m.FS.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}
	handle := core.Register(m.Env, cfg)

	// A small image-like dataset on the HDD tier.
	paths := make([]string, 256)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/img-%04d.jpg", platform.GreendogHDDPath, i)
		if _, err := m.FS.CreateFile(paths[i], 88*1024); err != nil {
			return nil, err
		}
	}

	// Train 8 steps with the TensorBoard callback profiling all of them.
	model := workload.MalwareCNN()
	tb := keras.NewTensorBoard(1, 8)
	var hist *keras.History
	var fitErr error
	m.K.Spawn("main", func(t *sim.Thread) {
		ds := tfdata.FromFiles(m.Env, paths).Shuffle(1).
			Map(workload.StreamMap, 4).Batch(32).Prefetch(4)
		it, err := ds.MakeIterator()
		if err != nil {
			fitErr = err
			return
		}
		hist, fitErr = model.Fit(t, m.Env, it, keras.FitOptions{
			Steps: 8, Callbacks: []keras.Callback{tb},
		})
	})
	if err := m.K.Run(); err != nil {
		return nil, err
	}
	if fitErr != nil {
		return nil, fitErr
	}
	return &tensorboard.ProfileData{
		Run:            "quickstart",
		History:        hist,
		Analysis:       handle.Last,
		Space:          tb.Space,
		SessionStartNs: tb.Session.StartNs,
	}, nil
}

func main() {
	pd, err := run()
	if err != nil {
		log.Fatal(err)
	}
	// tf-Darshan's in-situ analysis of the profiling window, then the
	// TensorBoard pages rendered for the terminal.
	fmt.Println(pd.Analysis.Summary())
	fmt.Println()
	fmt.Println(pd.OverviewText())
	fmt.Println(pd.InputPipelineText())
}
