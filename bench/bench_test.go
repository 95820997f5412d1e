package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/proto"
	"repro/tools/simlint/analysis"
	"repro/tools/simlint/rules"
)

// smokeScale shrinks every workload so the whole suite stays well under
// ten seconds: 5,120 ImageNet files, 2,560 for cluster-prefetch, 1,280 for
// cluster-checkpoint (five lockstep steps, enough for its mid-epoch
// failure), and 25 files for 20 data-service jobs.
const smokeScale = 0.08

// TestWorkloadsSmoke runs every workload twice at smoke size, the second
// time under the CPU profiler: both runs must pass their checks and give
// identical outcomes.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runRep(w, 3, smokeScale, 0, 0, false)
			b := runRep(w, 3, smokeScale, 1, 0, true)
			for _, r := range []repResult{a, b} {
				if r.Err != "" {
					t.Fatalf("repetition %d: %s", r.Rep, r.Err)
				}
			}
			if d := a.Outcome.diff(b.Outcome); len(d) > 0 {
				t.Fatalf("two runs of one seed differ: %v", d)
			}
			if a.Outcome.Counts["virt_s"] <= 0 || ioOps(a.Outcome) == 0 {
				t.Fatalf("implausible outcome %v", a.Outcome.Counts)
			}
			if b.Layers == nil {
				t.Fatalf("profiled repetition has no layer attribution")
			}
			for _, s := range []string{"setup", "platform.boot", "workload.build", "measure", "sim.run"} {
				if spanSeconds(a, s) <= 0 {
					t.Errorf("span %s missing or empty", s)
				}
			}
		})
	}
}

// TestSeedChangesInputs pins that -seed reaches the generated inputs.
func TestSeedChangesInputs(t *testing.T) {
	w, _ := findWorkload("cluster-prefetch")
	a := runRep(w, 1, smokeScale, 0, 0, false)
	b := runRep(w, 2, smokeScale, 0, 0, false)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("runs failed: %q %q", a.Err, b.Err)
	}
	if len(a.Outcome.diff(b.Outcome)) == 0 {
		t.Fatal("seeds 1 and 2 gave identical outcomes")
	}
}

// TestImagenetIsFig7a pins imagenet-profiled to the Fig. 7a artifact: at
// seed 0 the benchmark's composition of the layers must reproduce
// experiments.Fig7a at the same scale, and the committed reference must be
// Fig. 7a at the benchmark's scale (64,000 opens, 128,000 reads).
func TestImagenetIsFig7a(t *testing.T) {
	w, _ := findWorkload("imagenet-profiled")
	r := runRep(w, 0, smokeScale, 0, 0, false)
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	fig, err := experiments.Fig7a(experiments.Config{Scale: imagenetScale * smokeScale})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Outcome.Counts
	if got["io.posix_opens"] != float64(fig.Opens) || got["io.posix_reads"] != float64(fig.Reads) ||
		got["virt_s"] != fig.WallSec || got["io.bytes_read"]/1e6 != fig.BytesReadMB {
		t.Errorf("benchmark %v, Fig7a opens %d reads %d wall %v MB %v", got, fig.Opens, fig.Reads, fig.WallSec, fig.BytesReadMB)
	}

	ref, err := loadReference("imagenet-profiled")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Counts["io.posix_opens"] != 64000 || ref.Counts["io.posix_reads"] != 128000 {
		t.Errorf("reference opens %v reads %v, want 64000 and 128000", ref.Counts["io.posix_opens"], ref.Counts["io.posix_reads"])
	}
	for _, w := range workloads {
		if _, err := loadReference(w.name); err != nil {
			t.Error(err)
		}
	}
}

func stack(fns ...string) []frame {
	out := make([]frame, len(fns))
	for i, fn := range fns {
		out[i] = frame{fn: fn}
	}
	return out
}

func TestClassify(t *testing.T) {
	codec := frame{fn: "repro/internal/darshan.(*Log).Write", file: "/src/repro/internal/darshan/log.go"}
	decoder := frame{fn: "repro/internal/darshan.(*LogReader).NextSegment", file: "repro/internal/darshan/stream.go"}
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"merge below sort", stack("sort.insertionSort", "sort.Stable", "repro/internal/darshan.Merge", "repro/internal/distributed.Run"), "darshan.merge"},
		{"merge closure", stack("repro/internal/darshan.Merge.func1", "sort.Stable"), "darshan.merge"},
		{"merge before codec", append(stack("repro/internal/darshan.Merge"), codec), "darshan.merge"},
		{"encoder", append(stack("encoding/binary.Write", "reflect.Value.Field"), codec, frame{fn: "main.clusterOutcome"}), "darshan.codec"},
		{"decoder", []frame{{fn: "runtime.mallocgc"}, decoder}, "darshan.codec"},
		{"innermost module", stack("runtime.mallocgc", "repro/internal/vfs.(*FS).Lookup", "repro/internal/darshan.(*Runtime).read"), "vfs"},
		{"wrapper", stack("repro/internal/darshan.(*Runtime).read", "repro/internal/libc.(*Libc).Read"), "darshan.wrap"},
		{"generic method", stack("runtime.chanrecv", "repro/internal/sim.(*Chan[repro/internal/tf/tfdata.Batch]).Recv", "repro/internal/dataservice.(*Job).Next"), "sim"},
		{"nested package", stack("repro/internal/tf/tfdata.(*Iterator).Next"), "tf.tfdata"},
		{"tfio", stack("repro/internal/tf/tfio.ReadFile"), "tf.tfio"},
		{"dynload is libc", stack("repro/internal/dynload.(*Process).Call"), "libc"},
		{"helpers belong to their caller", stack("repro/internal/stats.(*Histogram).Add", "repro/internal/proto.(*Encoder).Uint64", "repro/internal/core.Export"), "core"},
		{"tf env belongs to its caller", stack("repro/internal/tf.(*GPU).Launch", "repro/internal/tf/keras.(*Model).Fit"), "tf.keras"},
		{"gzip under export", stack("compress/flate.(*compressor).deflate", "repro/internal/trace.(*Trace).WriteJSONGz", "repro/internal/core.Export"), "core"},
		{"tensorboard", stack("strings.(*Builder).WriteString", "repro/internal/tensorboard.(*ProfileData).OverviewText"), "tensorboard"},
		{"setup", stack("repro/internal/workload.Generate", "repro/internal/platform.NewKebnekaise"), "setup"},
		{"map function is setup code", stack("repro/internal/workload.ImageNetMap"), "setup"},
		{"gc worker", stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "gc"},
		{"benchmark code", stack("crypto/sha256.block", "main.digest"), "bench"},
		{"scheduler", stack("runtime.futex", "runtime.notesleep", "runtime.mPark"), "runtime"},
		{"unmapped package", stack("repro/internal/dstat.(*Sampler).Start"), "runtime"},
		{"empty", nil, "runtime"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAttributeProfile decodes a synthetic profile.proto with packed and
// unpacked repeated fields and an inlined location.
func TestAttributeProfile(t *testing.T) {
	strs := []string{"", "repro/internal/vfs.(*FS).Lookup", "vfs.go", "runtime.gcBgMarkWorker", "mgc.go", "repro/internal/darshan.Merge", "merge.go"}
	var p proto.Encoder
	for _, fn := range [][3]uint64{{1, 1, 2}, {2, 3, 4}, {3, 5, 6}} {
		var f proto.Encoder
		f.Uint64(functionID, fn[0])
		f.Uint64(functionName, fn[1])
		f.Uint64(functionFilename, fn[2])
		p.Message(profileFunction, &f)
	}
	for _, loc := range [][]uint64{{10, 1}, {11, 2}, {12, 1, 3}} { // id, functions innermost first
		var l proto.Encoder
		l.Uint64(locationID, loc[0])
		for _, fn := range loc[1:] {
			var line proto.Encoder
			line.Uint64(lineFunctionID, fn)
			l.Message(locationLine, &line)
		}
		p.Message(profileLocation, &l)
	}
	var s1, s2, s3 proto.Encoder
	s1.Uint64(sampleLocationID, 10) // unpacked
	s1.Uint64(sampleValue, 3)
	s1.Uint64(sampleValue, 30000000)
	s2.BytesField(sampleLocationID, []byte{11}) // packed
	s2.BytesField(sampleValue, []byte{2, 20})
	s3.BytesField(sampleLocationID, []byte{12, 11})
	s3.BytesField(sampleValue, []byte{4, 40})
	for _, s := range []*proto.Encoder{&s1, &s2, &s3} {
		p.Message(profileSample, s)
	}
	for _, s := range strs {
		p.String(profileStrings, s)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := attributeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"vfs": 3, "gc": 2, "darshan.merge": 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attributeProfile = %v, want %v", got, want)
	}
	if _, err := attributeProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage profile accepted")
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10}
	tight := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0}
	wide := []float64{7, 13, 8, 12, 9, 11, 10, 14, 6, 10}
	cases := []struct {
		name     string
		m        metricDef
		old, cur []float64
		want     string
	}{
		{"same runs", lower, tight, tight, verdictUnchanged},
		{"faster everywhere", lower, tight, scaled(tight, 0.8), verdictGain},
		{"faster within the noise", lower, tight, scaled(tight, 0.999), verdictUnchanged},
		{"slower beyond the bound", lower, tight, scaled(tight, 1.2), verdictRegression},
		{"slower within the bound", lower, tight, scaled(tight, 1.05), verdictUnchanged},
		{"spread wider than the bound", lower, wide, wide, verdictUnresolved},
		{"higher is better: gain", higher, tight, scaled(tight, 1.2), verdictGain},
		{"higher is better: regression", higher, tight, scaled(tight, 0.8), verdictRegression},
	}
	for _, c := range cases {
		if got := judge(c.m, c.old, c.cur); got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
	}
	// 8 of 10 pairs won is not a gain, however large the median change.
	cur := scaled(tight, 0.7)
	cur[0], cur[1] = 20, 20
	if got := judge(lower, tight, cur); got.verdict == verdictGain {
		t.Errorf("8/10 pairs judged a gain: %+v", got)
	}
}

func TestCompareRuns(t *testing.T) {
	runs := func(host float64) []runOutput {
		var out []runOutput
		for i := 0; i < 10; i++ {
			v := host * (1 + 0.001*float64(i%3))
			out = append(out, runOutput{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"host_s": {Value: v, Unit: "s"}, "alloc_mb": {Value: 100, Unit: "MB"},
			}})
		}
		return out
	}
	var buf bytes.Buffer
	if regressed, err := compareRuns(&buf, runs(1), runs(1)); err != nil || regressed {
		t.Fatalf("identical sets: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
	if regressed, err := compareRuns(&buf, runs(1), runs(1.5)); err != nil || !regressed {
		t.Fatalf("50%% slower: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
	if _, err := compareRuns(&buf, nil, runs(1)); err == nil {
		t.Fatal("empty side accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the root of the repository in
// step with the metric and workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames())
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, want %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerNames()) {
		t.Errorf("BENCHMARK.json per_layer does not list perLayerNames() in order")
	}
}

// TestLintClean applies the repository's simlint analyzers to this
// module, which the repository-wide lint run does not reach.
func TestLintClean(t *testing.T) {
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var known []string
	for _, a := range rules.All {
		known = append(known, a.Name)
	}
	diags, err := (&analysis.Runner{Analyzers: rules.All, KnownNames: known}).Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
	}
}
