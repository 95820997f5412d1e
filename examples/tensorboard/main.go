// TensorBoard server: profile two runs (ImageNet-like with 1 and 8
// threads), then serve the Overview / Input-Pipeline / TraceViewer pages
// and the raw artifacts (trace.json.gz, profile.pb) over HTTP.
//
//	go run ./examples/tensorboard [-addr :6006]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tensorboard"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/workload"
)

// profiledRun trains one ImageNet-like epoch on Kebnekaise with the given
// input-pipeline parallelism, profiling every step.
func profiledRun(threads int) (*tensorboard.ProfileData, error) {
	m := platform.NewKebnekaise(platform.Options{})
	cfg := core.DefaultTracerConfig()
	cfg.SizeOf = func(p string) (int64, bool) {
		ino, ok := m.FS.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}
	handle := core.Register(m.Env, cfg)
	paths := make([]string, 2048)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/in/img-%05d.jpg", platform.KebnekaiseLustre, i)
		if _, err := m.FS.CreateFile(paths[i], 88*1024); err != nil {
			return nil, err
		}
	}
	steps := len(paths) / 256
	model := workload.AlexNet()
	tb := keras.NewTensorBoard(1, steps)
	var hist *keras.History
	var fitErr error
	m.K.Spawn("main", func(t *sim.Thread) {
		ds := tfdata.FromFiles(m.Env, paths).Shuffle(7).
			Map(workload.ImageNetMap, threads).Batch(256).Prefetch(10)
		it, err := ds.MakeIterator()
		if err != nil {
			fitErr = err
			return
		}
		hist, fitErr = model.Fit(t, m.Env, it, keras.FitOptions{
			Steps: steps, Callbacks: []keras.Callback{tb},
		})
	})
	if err := m.K.Run(); err != nil {
		return nil, err
	}
	if fitErr != nil {
		return nil, fitErr
	}
	return &tensorboard.ProfileData{
		Run:            fmt.Sprintf("imagenet-%dthreads", threads),
		History:        hist,
		Analysis:       handle.Last,
		Space:          tb.Space,
		SessionStartNs: tb.Session.StartNs,
	}, nil
}

// run profiles the 1- and 8-thread runs, keyed by run name.
func run() (map[string]*tensorboard.ProfileData, error) {
	runs := map[string]*tensorboard.ProfileData{}
	for _, threads := range []int{1, 8} {
		pd, err := profiledRun(threads)
		if err != nil {
			return nil, err
		}
		runs[pd.Run] = pd
		fmt.Printf("profiled %s: %.2f MB/s\n", pd.Run, pd.Analysis.ReadBandwidthMBps)
	}
	return runs, nil
}

func main() {
	addr := flag.String("addr", ":6006", "listen address")
	flag.Parse()

	runs, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving TensorBoard-style profile pages on http://localhost%s/\n", *addr)
	log.Fatal(http.ListenAndServe(*addr, tensorboard.NewServer(runs)))
}
