package core

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/tfdata"
	"repro/internal/workload"
)

func TestAutoTunerClimbsOnImprovement(t *testing.T) {
	at := NewAutoTuner(1, 1, 32)
	// Bandwidth keeps improving with threads (Lustre-like).
	bw := map[int]float64{1: 3, 2: 6, 4: 12, 8: 24, 16: 25, 32: 25}
	for !at.Settled() {
		at.Observe(bw[at.Current()])
	}
	// Improvement stalls between 8 and 16: best known is 16 or 8.
	if got := at.Best().Threads; got < 8 {
		t.Fatalf("settled at %d threads, want >= 8", got)
	}
}

func TestAutoTunerBacksOffOnRegression(t *testing.T) {
	at := NewAutoTuner(1, 1, 32)
	// Threads hurt immediately (HDD malware-like).
	bw := map[int]float64{1: 94, 2: 85, 4: 80, 8: 78, 16: 77, 32: 76}
	for !at.Settled() {
		at.Observe(bw[at.Current()])
	}
	if got := at.Best().Threads; got != 1 {
		t.Fatalf("settled at %d threads, want 1", got)
	}
}

// TestAutoTunerHillClimb is the table-driven contract of the two Observe
// fixes: a tuner started above the optimum must reverse after its first
// regression and actually probe the shrink ladder (the halving branch was
// dead code while `direction` stayed +1), and non-positive bandwidth
// probes must count as regressions instead of silently failing to arm
// the baseline (which doubled the walk blindly to Max).
func TestAutoTunerHillClimb(t *testing.T) {
	cases := []struct {
		name            string
		start, min, max int
		bw              map[int]float64
		want            int
		wantProbedBelow bool // history must include counts below start
	}{
		{
			// The HDD/malware shape of Fig. 11a: every added thread
			// thrashes the disk head. Started at 8 (above the knee), the
			// tuner must walk 16 -> reverse -> 4 -> 2 -> 1 and converge
			// below its starting point. The pre-fix tuner settled at 8.
			name:  "starts above HDD knee and shrinks",
			start: 8, min: 1, max: 16,
			bw:              map[int]float64{1: 94, 2: 85, 4: 80, 8: 78, 16: 77},
			want:            1,
			wantProbedBelow: true,
		},
		{
			// Started at the top of the range, the first climb move clamps
			// in place; the bounce must explore downward instead of
			// settling at Max after one probe.
			name:  "starts at max and shrinks",
			start: 16, min: 1, max: 16,
			bw:              map[int]float64{1: 94, 2: 85, 4: 80, 8: 78, 16: 77},
			want:            1,
			wantProbedBelow: true,
		},
		{
			// The Lustre shape of Fig. 7b started above the knee: 16 and
			// 32 are flat, so the walk reverses, holds ground at 8 within
			// tolerance, regresses hard at 4 and reverts to the best.
			name:  "starts above lustre knee",
			start: 16, min: 1, max: 32,
			bw:   map[int]float64{1: 3, 2: 6, 4: 12, 8: 24, 16: 25, 32: 25},
			want: 16,
		},
		{
			// A dead storage path reports 0 MB/s everywhere. The pre-fix
			// guard never armed a baseline, so the tuner doubled to Max
			// and settled there; now every zero probe is a regression and
			// the walk collapses downward, settling at the zero-bandwidth
			// tie's lowest probed thread count.
			name:  "all-zero probes never reach max",
			start: 2, min: 1, max: 32,
			bw:   map[int]float64{1: 0, 2: 0, 4: 0, 8: 0, 16: 0, 32: 0},
			want: 1,
		},
		{
			// Bandwidth collapses to zero after a healthy baseline: the
			// zero probe is a regression, reverting to the best-known
			// observation rather than poisoning the baseline. (The shrink
			// probe at 2 is 8% below the best, a second regression.)
			name:  "zero probe after baseline reverts to best",
			start: 4, min: 1, max: 32,
			bw:   map[int]float64{1: 50, 2: 55, 4: 60, 8: 0, 16: 0, 32: 0},
			want: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			at := NewAutoTuner(tc.start, tc.min, tc.max)
			for i := 0; !at.Settled(); i++ {
				if i > 32 {
					t.Fatalf("tuner never settled (history %+v)", at.History)
				}
				at.Observe(tc.bw[at.Current()])
			}
			if got := at.Current(); got != tc.want {
				t.Fatalf("settled at %d threads, want %d (history %+v)", got, tc.want, at.History)
			}
			if at.Current() != at.Best().Threads {
				t.Fatalf("settled at %d but Best is %d", at.Current(), at.Best().Threads)
			}
			if tc.wantProbedBelow {
				below := false
				for _, o := range at.History {
					if o.Threads < tc.start {
						below = true
					}
				}
				if !below {
					t.Fatalf("shrink direction never probed below start=%d (history %+v)", tc.start, at.History)
				}
			}
		})
	}
}

// TestAutoTunerZeroAfterBaselineStepByStep pins the exact walk of a
// bandwidth collapse: regression #1 reverses from the best observation,
// regression #2 reverts to it and settles.
func TestAutoTunerZeroAfterBaselineStepByStep(t *testing.T) {
	at := NewAutoTuner(4, 1, 32)
	at.Observe(60) // baseline at 4, climb to 8
	if at.Current() != 8 {
		t.Fatalf("after baseline, current = %d, want 8", at.Current())
	}
	at.Observe(0) // dead path: regression #1, reverse from best (4) to 2
	if at.Current() != 2 {
		t.Fatalf("after zero probe, current = %d, want 2", at.Current())
	}
	at.Observe(0) // still dead: regression #2, revert to best and settle
	if !at.Settled() || at.Current() != 4 {
		t.Fatalf("settled=%v at %d threads, want settled at 4", at.Settled(), at.Current())
	}
}

func TestAutoTunerBestTieBreaksToLowestThreads(t *testing.T) {
	at := NewAutoTuner(1, 1, 32)
	at.History = []TuneObservation{
		{Threads: 8, BandwidthMBps: 25},
		{Threads: 4, BandwidthMBps: 25},
		{Threads: 16, BandwidthMBps: 25},
		{Threads: 2, BandwidthMBps: 10},
	}
	if got := at.Best().Threads; got != 4 {
		t.Fatalf("Best tie-break chose %d threads, want 4 (lowest at peak bandwidth)", got)
	}
}

func TestAutoTunerBounds(t *testing.T) {
	at := NewAutoTuner(64, 2, 16)
	if at.Current() != 16 {
		t.Fatalf("start clamped to %d", at.Current())
	}
	at = NewAutoTuner(0, 0, 0)
	if at.Current() != 1 || at.Min != 1 || at.Max != 1 {
		t.Fatalf("degenerate bounds: %+v", at)
	}
	at.Observe(10)
	if !at.Settled() {
		t.Fatal("single-point space should settle immediately")
	}
}

// probeBandwidth measures a short profiled STREAM window at the given
// thread count on a fresh machine.
func probeBandwidth(build func() (*platform.Machine, *Handle, []string), steps int) func(threads int) (float64, error) {
	return func(threads int) (float64, error) {
		m, h, paths := build()
		var err error
		m.K.Spawn("probe", func(th *sim.Thread) {
			ds := tfdata.FromFiles(m.Env, paths).Shuffle(1).
				Map(workload.StreamMap, threads).Batch(32).Prefetch(4)
			it, mkErr := ds.MakeIterator()
			if mkErr != nil {
				err = mkErr
				return
			}
			if _, e := m.Env.Prof.Start(th); e != nil {
				err = e
				return
			}
			for s := 0; s < steps; s++ {
				if _, ok := it.Next(th); !ok {
					break
				}
			}
			if _, e := m.Env.Prof.Stop(th); e != nil {
				err = e
				return
			}
			it.Close(th)
		})
		if runErr := m.K.Run(); runErr != nil {
			return 0, runErr
		}
		if err != nil {
			return 0, err
		}
		if h.Last == nil {
			return 0, fmt.Errorf("no analysis")
		}
		return h.Last.ReadBandwidthMBps, nil
	}
}

func TestAutoTuneFindsThreadingOnLustre(t *testing.T) {
	// Small files on Lustre: the tuner must discover that threading pays
	// (the Fig. 7b direction) from measured windows alone.
	build := func() (*platform.Machine, *Handle, []string) {
		m := platform.NewKebnekaise(platform.Options{})
		h := Register(m.Env, DefaultTracerConfig())
		paths := make([]string, 512)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s/f%04d", platform.KebnekaiseLustre, i)
			m.FS.CreateFile(paths[i], 88*1024)
		}
		return m, h, paths
	}
	at := NewAutoTuner(1, 1, 28)
	chosen, err := at.Tune(probeBandwidth(build, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	if chosen < 4 {
		t.Fatalf("autotune chose %d threads on Lustre, want >= 4 (history %+v)", chosen, at.History)
	}
}

func TestAutoTuneStartedAboveHDDKneeConvergesBelow(t *testing.T) {
	// The acceptance case of the shrink-direction fix on real measured
	// probes: a tuner started at 8 threads on the HDD corpus (above the
	// Fig. 11a knee) must converge below its starting point, which
	// requires the previously dead halving branch to actually run.
	build := func() (*platform.Machine, *Handle, []string) {
		m := platform.NewGreendog(platform.Options{})
		h := Register(m.Env, DefaultTracerConfig())
		paths := make([]string, 128)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s/m%04d", platform.GreendogHDDPath, i)
			m.FS.CreateFile(paths[i], 4<<20)
		}
		return m, h, paths
	}
	at := NewAutoTuner(8, 1, 16)
	chosen, err := at.Tune(probeBandwidth(build, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if chosen >= 8 {
		t.Fatalf("autotune started at 8 settled at %d threads, want < 8 (history %+v)", chosen, at.History)
	}
}

func TestAutoTuneAvoidsThreadingOnHDD(t *testing.T) {
	// Multi-MB files on the HDD: the tuner must keep parallelism low
	// (the Fig. 11a direction).
	build := func() (*platform.Machine, *Handle, []string) {
		m := platform.NewGreendog(platform.Options{})
		h := Register(m.Env, DefaultTracerConfig())
		paths := make([]string, 128)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s/m%04d", platform.GreendogHDDPath, i)
			m.FS.CreateFile(paths[i], 4<<20)
		}
		return m, h, paths
	}
	at := NewAutoTuner(1, 1, 16)
	chosen, err := at.Tune(probeBandwidth(build, 3), 6)
	if err != nil {
		t.Fatal(err)
	}
	if chosen > 2 {
		t.Fatalf("autotune chose %d threads on HDD, want <= 2 (history %+v)", chosen, at.History)
	}
}
