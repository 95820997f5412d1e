package tfio

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

func TestBuildTFRecordShards(t *testing.T) {
	m := greendog()
	var paths []string
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("%s/s%03d", platform.GreendogHDDPath, i)
		m.FS.CreateFile(p, 100_000)
		paths = append(paths, p)
	}
	var shards []*ShardIndex
	run(t, m, func(th *sim.Thread) {
		var err error
		shards, err = BuildTFRecordShards(th, m.Env, paths, platform.GreendogSSDPath, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(shards) < 3 || len(shards) > 5 {
		t.Fatalf("shards = %d", len(shards))
	}
	totalSamples := 0
	var totalBytes int64
	for _, s := range shards {
		totalSamples += s.Samples
		totalBytes += s.Bytes
		ino, ok := m.FS.Lookup(s.Path)
		if !ok {
			t.Fatalf("shard %s missing", s.Path)
		}
		if ino.Size != s.Bytes {
			t.Fatalf("shard size %d != index %d", ino.Size, s.Bytes)
		}
	}
	if totalSamples != 40 {
		t.Fatalf("samples = %d", totalSamples)
	}
	// Framing adds 16 bytes per record.
	if want := int64(40) * (100_000 + 16); totalBytes != want {
		t.Fatalf("bytes = %d, want %d", totalBytes, want)
	}
}

func TestScanShardSequentialLargeReads(t *testing.T) {
	m := greendog()
	var paths []string
	for i := 0; i < 32; i++ {
		p := fmt.Sprintf("%s/x%03d", platform.GreendogHDDPath, i)
		m.FS.CreateFile(p, 88*1024)
		paths = append(paths, p)
	}
	var shards []*ShardIndex
	var scanned int64
	run(t, m, func(th *sim.Thread) {
		var err error
		shards, err = BuildTFRecordShards(th, m.Env, paths, platform.GreendogSSDPath, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Darshan.Posix.RecordCount()
		_ = before
		scanned, err = ScanShard(th, m.Env, shards[0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(shards) != 1 {
		t.Fatalf("shards = %d", len(shards))
	}
	if scanned != shards[0].Bytes {
		t.Fatalf("scanned %d of %d", scanned, shards[0].Bytes)
	}
	// The shard scan issues few large reads instead of 2 per sample: with
	// an 8MiB buffer, a ~2.8MiB shard takes 1 data read + 1 EOF read.
	for _, rec := range m.Darshan.Export(m.K.Now()).Posix {
		name, _ := m.Darshan.LookupName(rec.ID)
		if name == shards[0].Path {
			if got := rec.Counters[1]; got > 3 { // POSIX_READS
				t.Fatalf("shard scan used %d reads, want few large ones", got)
			}
		}
	}
}

func TestTFRecordContainersBeatSmallFilesOnHDD(t *testing.T) {
	// The paper's §VII suggestion quantified: scanning containers beats
	// per-file reads for small-file corpora.
	m := greendog()
	var paths []string
	for i := 0; i < 256; i++ {
		p := fmt.Sprintf("%s/in/f%04d", platform.GreendogHDDPath, i)
		m.FS.CreateFile(p, 88*1024)
		paths = append(paths, p)
	}
	var perFileNs, containerNs int64
	run(t, m, func(th *sim.Thread) {
		// Per-file pass.
		t0 := th.Now()
		for _, p := range paths {
			if _, err := ReadFile(th, m.Env, p); err != nil {
				t.Fatal(err)
			}
		}
		perFileNs = th.Now() - t0

		// Container conversion (cost not measured here), then scan.
		shards, err := BuildTFRecordShards(th, m.Env, paths, platform.GreendogHDDPath+"/tfr", 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		t0 = th.Now()
		for _, s := range shards {
			if _, err := ScanShard(th, m.Env, s); err != nil {
				t.Fatal(err)
			}
		}
		containerNs = th.Now() - t0
	})
	if containerNs*2 > perFileNs {
		t.Fatalf("containers %.1fms vs per-file %.1fms: want >2x faster",
			float64(containerNs)/1e6, float64(perFileNs)/1e6)
	}
}
