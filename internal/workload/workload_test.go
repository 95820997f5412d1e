package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/tfdata"
	"repro/internal/vfs"
)

func testFS() *vfs.FS {
	m := platform.NewGreendog(platform.Options{})
	return m.FS
}

func TestImageNetCharacteristics(t *testing.T) {
	spec := ImageNetSpec(platform.GreendogHDDPath+"/in", 0.05)
	d, err := BuildImageNet(testFS(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Paths) != 6400 {
		t.Fatalf("files = %d", len(d.Paths))
	}
	// Total is exact; median near 88KB (Table II).
	if got := d.Total(); got != spec.TotalBytes {
		t.Fatalf("total = %d, want %d", got, spec.TotalBytes)
	}
	if med := d.Median(); med < 60*1024 || med > 120*1024 {
		t.Fatalf("median = %d", med)
	}
}

func TestMalwareCharacteristics(t *testing.T) {
	spec := MalwareSpec(platform.GreendogHDDPath+"/mw", 0.2)
	d, err := BuildMalware(testFS(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if med := d.Median(); med < 3<<20 || med > 5<<20 {
		t.Fatalf("median = %d, want ~4MB", med)
	}
	// The decisive staging shape (paper §V-B): files under 2MB are ~40%
	// of the population but hold under ~10% of the bytes.
	files, bytes := 0, int64(0)
	for _, s := range d.Sizes {
		if s < 2<<20 {
			files++
			bytes += s
		}
	}
	fracFiles := float64(files) / float64(len(d.Paths))
	fracBytes := float64(bytes) / float64(d.Total())
	if fracFiles < 0.33 || fracFiles > 0.47 {
		t.Fatalf("frac files under 2MB = %v, want ~0.40", fracFiles)
	}
	if fracBytes < 0.04 || fracBytes > 0.13 {
		t.Fatalf("frac bytes under 2MB = %v, want ~0.08", fracBytes)
	}
}

func TestStreamSpecs(t *testing.T) {
	fs := testFS()
	si, err := BuildStreamImageNet(fs, StreamImageNetSpec(platform.GreendogHDDPath+"/si", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(si.Paths) != 1280 {
		t.Fatalf("stream imagenet files = %d", len(si.Paths))
	}
	if med := si.Median(); med < 50*1024 || med > 110*1024 {
		t.Fatalf("stream imagenet median = %d", med)
	}
	sm, err := BuildStreamMalware(fs, StreamMalwareSpec(platform.GreendogHDDPath+"/sm", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if med := sm.Median(); med < 3<<20 || med > 9<<20 {
		t.Fatalf("stream malware median = %d", med)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MalwareSizes(MalwareSpec("/x", 0.1))
	b := MalwareSizes(MalwareSpec("/x", 0.1))
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sizes not deterministic")
		}
	}
}

func TestScaleToExactTotal(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		spec := ImageNetSpec("/d", 0.01)
		spec.Seed = seed
		spec.NumFiles = int(n%50) + 2
		sizes := ImageNetSizes(spec)
		var total int64
		for _, s := range sizes {
			total += s
			if s < 1 {
				return false
			}
		}
		return total == spec.TotalBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestModels(t *testing.T) {
	an := AlexNet()
	if len(an.Vars) != 16 {
		t.Fatalf("alexnet vars = %d", len(an.Vars))
	}
	if an.StepTime(256) != 120*sim.Millisecond {
		t.Fatalf("alexnet step = %v", an.StepTime(256))
	}
	if an.StepTime(128) != 60*sim.Millisecond {
		t.Fatal("step time should scale with batch")
	}
	mc := MalwareCNN()
	if mc.ParamBytes() > 10<<20 {
		t.Fatalf("malware cnn too big: %d", mc.ParamBytes())
	}
}

func TestMapFunctions(t *testing.T) {
	// Read the same file three times: the first pass warms metadata, the
	// second and third isolate the preprocessing cost differences.
	m := platform.NewGreendog(platform.Options{})
	m.FS.CreateFile(platform.GreendogHDDPath+"/sample", 1<<20)
	var streamT, imageT, malT int64
	m.K.Spawn("t", func(th *sim.Thread) {
		s, err := StreamMap(th, m.Env, platform.GreendogHDDPath+"/sample")
		if err != nil || s.Bytes != 1<<20 {
			t.Errorf("StreamMap = %+v, %v", s, err)
		}
		t0 := th.Now()
		StreamMap(th, m.Env, platform.GreendogHDDPath+"/sample")
		streamT = th.Now() - t0

		t0 = th.Now()
		if _, err := ImageNetMap(th, m.Env, platform.GreendogHDDPath+"/sample"); err != nil {
			t.Error(err)
		}
		imageT = th.Now() - t0

		t0 = th.Now()
		if _, err := MalwareMap(th, m.Env, platform.GreendogHDDPath+"/sample"); err != nil {
			t.Error(err)
		}
		malT = th.Now() - t0
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	// JPEG decode is the most expensive preprocessing; STREAM has none.
	if !(imageT > malT && malT > streamT) {
		t.Fatalf("costs: stream=%d malware=%d imagenet=%d", streamT, malT, imageT)
	}
	_ = tfdata.Sample{}
}
