package tfdata

import (
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf"
)

// BenchmarkStageHop measures one sample through map → batch → prefetch: a
// no-op map function on one worker, batches of one and a prefetch depth
// of one, so each sample pays every stage's channel hop and thread
// handoff and nothing else.
func BenchmarkStageHop(b *testing.B) {
	m := platform.NewGreendog(platform.Options{})
	noop := func(_ *sim.Thread, _ *tf.Env, path string) (Sample, error) { return Sample{Path: path}, nil }
	ds := FromFiles(m.Env, slices.Repeat([]string{"/sample"}, b.N)).Map(noop, 1).Batch(1).Prefetch(1)
	var samples int64
	m.K.Spawn("consumer", func(th *sim.Thread) {
		it, err := ds.MakeIterator()
		if err != nil {
			panic(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for {
			if _, ok := it.Next(th); !ok {
				break
			}
		}
		b.StopTimer()
		samples = it.SamplesOut
	})
	if err := m.K.Run(); err != nil {
		b.Fatal(err)
	}
	if samples != int64(b.N) {
		b.Fatalf("%d samples delivered, want %d", samples, b.N)
	}
}
