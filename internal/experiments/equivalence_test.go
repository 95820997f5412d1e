package experiments

import (
	"reflect"
	"testing"

	"repro/internal/darshan"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/tfdata"
	"repro/internal/tf/tfio"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// equivalenceArtifacts is everything a run produces that the paper's
// figures are derived from: the exported Darshan log (records with
// ACCESS1..4, DXT segments, name table) and the virtual clock at
// completion.
type equivalenceArtifacts struct {
	EndNs int64
	*darshan.Log
}

// collectArtifacts exports a machine's Darshan log at its clock, the
// comparison payload of every equivalence test.
func collectArtifacts(m *platform.Machine) equivalenceArtifacts {
	return equivalenceArtifacts{EndNs: m.K.Now(), Log: m.Darshan.Export(m.K.Now())}
}

// runForEquivalence executes a small instrumented epoch with the read fast
// path either live (verify=false, count-only preads) or disabled
// (verify=true, materializing preads + content checksums).
func runForEquivalence(t *testing.T, build func(fs *vfs.FS) (*workload.Dataset, error), mapFn tfdata.MapFunc, verify bool) equivalenceArtifacts {
	t.Helper()
	m := platform.NewGreendog(platform.Options{PreloadDarshan: true})
	m.Env.VerifyContent = verify
	d, err := build(m.FS)
	if err != nil {
		t.Fatal(err)
	}
	setup := &trainSetup{
		machine: m, data: d, mapFn: mapFn,
		threads: 2, batch: 8, steps: len(d.Paths) / 8, prefetch: 2,
		shuffle: 42,
	}
	if _, err := setup.run(); err != nil {
		t.Fatal(err)
	}
	return collectArtifacts(m)
}

// TestStdioFastPathEquivalence asserts the STDIO half of the
// zero-materialization contract on a real product path: a checkpoint
// write + restore (buffered fwrite out, count-only fread back) produces
// byte-identical Darshan records and virtual end time whether or not the
// restore materializes and checksums the stream content.
func TestStdioFastPathEquivalence(t *testing.T) {
	runRoundTrip := func(verify bool) equivalenceArtifacts {
		m := platform.NewGreendog(platform.Options{PreloadDarshan: true})
		m.Env.VerifyContent = verify
		vars := []tfio.Variable{
			{Name: "conv/kernel", Bytes: 3 << 20},
			{Name: "conv/bias", Bytes: 4096},
			{Name: "dense/kernel", Bytes: 9<<20 + 137},
		}
		m.K.Spawn("restorer", func(th *sim.Thread) {
			res, err := tfio.WriteCheckpoint(th, m.Env, platform.GreendogSSDPath+"/eq-ckpt", vars)
			if err != nil {
				t.Error(err)
				return
			}
			n, err := tfio.RestoreCheckpoint(th, m.Env, platform.GreendogSSDPath+"/eq-ckpt", vars)
			if err != nil {
				t.Error(err)
				return
			}
			if n != res.Bytes {
				t.Errorf("restored %d bytes, wrote %d", n, res.Bytes)
			}
		})
		if err := m.K.Run(); err != nil {
			t.Fatal(err)
		}
		return collectArtifacts(m)
	}
	lazy := runRoundTrip(false)
	full := runRoundTrip(true)
	if lazy.EndNs != full.EndNs {
		t.Errorf("simulated end time diverged: lazy %d ns, materialized %d ns", lazy.EndNs, full.EndNs)
	}
	if !reflect.DeepEqual(lazy.Stdio, full.Stdio) {
		t.Errorf("STDIO records diverged between lazy and materialized restores")
	}
	if !reflect.DeepEqual(lazy.Posix, full.Posix) {
		t.Errorf("POSIX records diverged between lazy and materialized restores")
	}
	if !reflect.DeepEqual(lazy.DXT, full.DXT) {
		t.Errorf("DXT segments diverged between lazy and materialized restores")
	}
	if !reflect.DeepEqual(lazy.Names, full.Names) {
		t.Errorf("name tables diverged between lazy and materialized restores")
	}
	if len(lazy.Stdio) == 0 {
		t.Fatal("no STDIO records captured")
	}
	var freads int64
	for i := range lazy.Stdio {
		freads += lazy.Stdio[i].Counters[darshan.STDIO_READS]
	}
	if freads == 0 {
		t.Fatal("restore exercised no STDIO freads")
	}
}

// TestFastPathEquivalence asserts that the zero-materialization read path
// is observationally identical to full materialization: same Darshan
// counter records, same DXT segments, same simulated end time.
func TestFastPathEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		build func(fs *vfs.FS) (*workload.Dataset, error)
		mapFn tfdata.MapFunc
	}{
		{
			name: "imagenet",
			build: func(fs *vfs.FS) (*workload.Dataset, error) {
				spec := workload.DatasetSpec{
					Name: "imagenet", Dir: platform.GreendogHDDPath + "/eq-in",
					NumFiles: 64, TotalBytes: 6 << 20, Seed: 20200812,
				}
				return workload.Generate(fs, spec, workload.ImageNetSizes(spec))
			},
			mapFn: workload.ImageNetMap,
		},
		{
			name: "malware",
			build: func(fs *vfs.FS) (*workload.Dataset, error) {
				spec := workload.DatasetSpec{
					Name: "malware", Dir: platform.GreendogHDDPath + "/eq-mw",
					NumFiles: 24, TotalBytes: 96 << 20, Seed: 20150409,
				}
				return workload.Generate(fs, spec, workload.MalwareSizes(spec))
			},
			mapFn: workload.MalwareMap,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy := runForEquivalence(t, tc.build, tc.mapFn, false)
			full := runForEquivalence(t, tc.build, tc.mapFn, true)
			if lazy.EndNs != full.EndNs {
				t.Errorf("simulated end time diverged: lazy %d ns, materialized %d ns", lazy.EndNs, full.EndNs)
			}
			if !reflect.DeepEqual(lazy.Posix, full.Posix) {
				t.Errorf("POSIX records diverged between lazy and materialized runs")
			}
			if !reflect.DeepEqual(lazy.Stdio, full.Stdio) {
				t.Errorf("STDIO records diverged between lazy and materialized runs")
			}
			if !reflect.DeepEqual(lazy.DXT, full.DXT) {
				t.Errorf("DXT segments diverged between lazy and materialized runs")
			}
			if !reflect.DeepEqual(lazy.Names, full.Names) {
				t.Errorf("name tables diverged between lazy and materialized runs")
			}
			if len(lazy.Posix) == 0 || len(lazy.DXT) == 0 {
				t.Fatalf("no Darshan records captured (posix=%d dxt=%d)", len(lazy.Posix), len(lazy.DXT))
			}
		})
	}
}
