package tfio

import (
	"runtime"
	"testing"

	"repro/internal/darshan"
	"repro/internal/platform"
	"repro/internal/sim"
)

func greendog() *platform.Machine {
	return platform.NewGreendog(platform.Options{PreloadDarshan: true})
}

func run(t *testing.T, m *platform.Machine, fn func(th *sim.Thread)) {
	t.Helper()
	m.K.Spawn("main", fn)
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileChunksAndZeroRead(t *testing.T) {
	m := greendog()
	size := int64(3*ReadChunk + 1234)
	m.FS.CreateFile(platform.GreendogHDDPath+"/f.bin", size)
	run(t, m, func(th *sim.Thread) {
		n, err := ReadFile(th, m.Env, platform.GreendogHDDPath+"/f.bin")
		if err != nil {
			t.Fatal(err)
		}
		if n != size {
			t.Fatalf("read %d bytes, want %d", n, size)
		}
	})
	// Darshan (preloaded) sees 4 data reads + 1 zero read.
	recs := m.Darshan.Export(m.K.Now()).Posix
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if got := recs[0].Counters[1]; got != 5 { // POSIX_READS
		t.Fatalf("reads = %d, want 5", got)
	}
}

func TestReadFileSmallFileTwoReads(t *testing.T) {
	m := greendog()
	m.FS.CreateFile(platform.GreendogHDDPath+"/img.jpg", 88*1024)
	run(t, m, func(th *sim.Thread) {
		if _, err := ReadFile(th, m.Env, platform.GreendogHDDPath+"/img.jpg"); err != nil {
			t.Fatal(err)
		}
	})
	recs := m.Darshan.Export(m.K.Now()).Posix
	if got := recs[0].Counters[1]; got != 2 { // one data read + EOF probe
		t.Fatalf("reads = %d, want 2", got)
	}
}

func TestReadFileMissing(t *testing.T) {
	m := greendog()
	run(t, m, func(th *sim.Thread) {
		if _, err := ReadFile(th, m.Env, platform.GreendogHDDPath+"/nope"); err == nil {
			t.Fatal("expected error")
		}
	})
}

func TestReadFileVerifyContentMatchesDiscard(t *testing.T) {
	// The count-only fast path and the materializing verify path must be
	// indistinguishable in returned counts and Darshan counters.
	size := int64(2*ReadChunk + 777)
	var counters [2][]int64
	for i, verify := range []bool{false, true} {
		m := greendog()
		m.Env.VerifyContent = verify
		m.FS.CreateFile(platform.GreendogHDDPath+"/v.bin", size)
		run(t, m, func(th *sim.Thread) {
			n, err := ReadFile(th, m.Env, platform.GreendogHDDPath+"/v.bin")
			if err != nil {
				t.Fatal(err)
			}
			if n != size {
				t.Fatalf("verify=%v: read %d bytes, want %d", verify, n, size)
			}
		})
		recs := m.Darshan.Export(m.K.Now()).Posix
		if len(recs) != 1 {
			t.Fatalf("verify=%v: records = %d", verify, len(recs))
		}
		counters[i] = recs[0].Counters[:]
	}
	for j := range counters[0] {
		if counters[0][j] != counters[1][j] {
			t.Fatalf("counter %d diverged: discard %d, verify %d", j, counters[0][j], counters[1][j])
		}
	}
}

func TestRestoreCheckpointVerifyContent(t *testing.T) {
	// Restoring a written checkpoint under VerifyContent exercises the
	// checksum round-trip over written ranges: writes are counted, not
	// stored, so the restore reads the files' procedural bytes.
	m := greendog()
	m.Env.VerifyContent = true
	vars := []Variable{{Name: "w", Bytes: 1 << 20}, {Name: "b", Bytes: 4096}}
	run(t, m, func(th *sim.Thread) {
		res, err := WriteCheckpoint(th, m.Env, platform.GreendogSSDPath+"/vckpt", vars)
		if err != nil {
			t.Fatal(err)
		}
		n, err := RestoreCheckpoint(th, m.Env, platform.GreendogSSDPath+"/vckpt", vars)
		if err != nil {
			t.Fatal(err)
		}
		if n != res.Bytes {
			t.Fatalf("restored %d bytes, wrote %d", n, res.Bytes)
		}
	})
}

func TestWritableFileAppendsViaFwrite(t *testing.T) {
	m := greendog()
	run(t, m, func(th *sim.Thread) {
		w, err := NewWritableFile(th, m.Env, platform.GreendogSSDPath+"/out")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			if err := w.Append(th, make([]byte, 100_000)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(th); err != nil {
			t.Fatal(err)
		}
		if w.Appends != 7 {
			t.Fatalf("appends = %d", w.Appends)
		}
	})
	srecs := m.Darshan.Export(m.K.Now()).Stdio
	if len(srecs) != 1 || srecs[0].Counters[2] != 7 { // STDIO_WRITES
		t.Fatalf("stdio writes: %+v", srecs)
	}
	ino, ok := m.FS.Lookup(platform.GreendogSSDPath + "/out")
	if !ok || ino.Size != 700_000 {
		t.Fatalf("file size = %v", ino)
	}
}

func TestCheckpointFwriteCount(t *testing.T) {
	m := greendog()
	// AlexNet-scale variable set: ~233MB over 16 tensors.
	vars := alexNetLikeVars()
	var res CheckpointResult
	run(t, m, func(th *sim.Thread) {
		var err error
		res, err = WriteCheckpoint(th, m.Env, platform.GreendogSSDPath+"/ckpt-0001", vars)
		if err != nil {
			t.Fatal(err)
		}
	})
	// The paper observes ~1,400 fwrites for 10 checkpoints => ~140 each.
	if res.FwriteOps < 120 || res.FwriteOps > 160 {
		t.Fatalf("fwrites per checkpoint = %d, want ~140", res.FwriteOps)
	}
	if res.Bytes < 233<<20 {
		t.Fatalf("checkpoint bytes = %d", res.Bytes)
	}
	if res.DurationNs <= 0 {
		t.Fatal("checkpoint cost no time")
	}
}

// Checkpoint writes are counted, not stored, and every header and payload
// chunk comes from one shared zero chunk: saving a 16 MiB variable must not
// allocate anything on the order of its size.
func TestWriteCheckpointAllocatesNoPayload(t *testing.T) {
	m := greendog()
	vars := []Variable{{Name: "w", Bytes: 16 << 20}}
	var before, after runtime.MemStats
	run(t, m, func(th *sim.Thread) {
		runtime.ReadMemStats(&before)
		if _, err := WriteCheckpoint(th, m.Env, platform.GreendogSSDPath+"/alloc", vars); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	})
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("WriteCheckpoint of 16 MiB allocated %d bytes, want < 64 KiB", got)
	}
}

func TestCheckpointRestoreReadsBack(t *testing.T) {
	m := greendog()
	vars := []Variable{{Name: "w", Bytes: 1 << 20}, {Name: "b", Bytes: 4096}}
	run(t, m, func(th *sim.Thread) {
		res, err := WriteCheckpoint(th, m.Env, platform.GreendogSSDPath+"/small", vars)
		if err != nil {
			t.Fatal(err)
		}
		n, err := RestoreCheckpoint(th, m.Env, platform.GreendogSSDPath+"/small", vars)
		if err != nil {
			t.Fatal(err)
		}
		if n != res.Bytes {
			t.Fatalf("restored %d bytes, wrote %d", n, res.Bytes)
		}
	})
}

func TestRestoreCheckpointReadsOnStdioLayer(t *testing.T) {
	// The checkpoint round-trip is symmetric: writes go through fwrite and
	// restores through fread, so Darshan's STDIO module sees both sides and
	// its POSIX module sees neither.
	m := greendog()
	vars := []Variable{{Name: "w", Bytes: 1 << 20}, {Name: "b", Bytes: 4096}}
	run(t, m, func(th *sim.Thread) {
		if _, err := WriteCheckpoint(th, m.Env, platform.GreendogSSDPath+"/sckpt", vars); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreCheckpoint(th, m.Env, platform.GreendogSSDPath+"/sckpt", vars); err != nil {
			t.Fatal(err)
		}
	})
	var freads, fbytes int64
	for _, r := range m.Darshan.Export(m.K.Now()).Stdio {
		freads += r.Counters[darshan.STDIO_READS]
		fbytes += r.Counters[darshan.STDIO_BYTES_READ]
	}
	if freads == 0 {
		t.Fatal("restore produced no STDIO freads")
	}
	wantBytes := int64(1<<20) + 4096 + 2*256 + int64(len("w")+len("b")+4*8)
	if fbytes != wantBytes {
		t.Fatalf("stdio bytes read = %d, want %d", fbytes, wantBytes)
	}
	for _, r := range m.Darshan.Export(m.K.Now()).Posix {
		if r.Counters[darshan.POSIX_READS] != 0 {
			t.Fatalf("restore leaked %d reads into the POSIX module", r.Counters[darshan.POSIX_READS])
		}
	}
}

// alexNetLikeVars builds a 16-tensor, ~233MB variable set.
func alexNetLikeVars() []Variable {
	sizes := []int64{
		140 * 1024, 1 * 1024, // conv1 w/b
		1228 * 1024, 1 * 1024, // conv2
		3398 * 1024, 2 * 1024, // conv3
		2654 * 1024, 2 * 1024, // conv4
		1769 * 1024, 1 * 1024, // conv5
		151 << 20, 16 * 1024, // fc6 (the big one)
		64 << 20, 16 * 1024, // fc7
		16 << 20, 4 * 1024, // fc8
	}
	vars := make([]Variable, len(sizes))
	for i, s := range sizes {
		vars[i] = Variable{Name: "var" + string(rune('a'+i)), Bytes: s}
	}
	return vars
}
