package darshan

import (
	"reflect"
	"testing"

	"repro/internal/dynload"
	"repro/internal/libc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// rig is a fully-wired simulated process: VFS over an HDD, libc linked at
// startup, Darshan attached by GOT patching (the tf-Darshan deployment).
type rig struct {
	k    *sim.Kernel
	fs   *vfs.FS
	hdd  *storage.HDD
	proc *dynload.Process
	rt   *Runtime
	c    *libc.Calls
}

func newRig(cfg Config) *rig {
	k := sim.NewKernel()
	fs := vfs.New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	fs.AddMount(&vfs.Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1})
	proc := dynload.NewProcess()
	proc.LinkStartup(nil, libc.NewLibrary(fs))
	rt := NewRuntime(cfg, k.Now())
	r := &rig{k: k, fs: fs, hdd: hdd, proc: proc, rt: rt, c: libc.Bind(proc)}
	r.attach()
	return r
}

// attach patches all I/O GOT symbols to Darshan wrappers, the same scan
// tf-Darshan's middle-man performs.
func (r *rig) attach() {
	for _, sym := range r.proc.ScanGOT(libc.IsIOSymbol) {
		entry := r.proc.MustGOT(sym)
		wrapped, ok := r.rt.WrapperFor(sym, entry.Fn())
		if !ok {
			continue
		}
		if _, err := r.proc.PatchGOT(sym, wrapped); err != nil {
			panic(err)
		}
	}
}

func (r *rig) run(t *testing.T, fn func(th *sim.Thread)) {
	t.Helper()
	r.k.Spawn("app", fn)
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) posixRec(t *testing.T, path string) *PosixRecord {
	t.Helper()
	for _, rec := range r.rt.Posix.Records() {
		if name, _ := r.rt.LookupName(rec.ID); name == path {
			return rec
		}
	}
	t.Fatalf("no POSIX record for %s", path)
	return nil
}

// readWholeFileTFStyle performs TensorFlow's ReadFile loop: chunked pread
// until a zero-length read signals EOF.
func readWholeFileTFStyle(th *sim.Thread, c *libc.Calls, path string, chunk int) int {
	fd, err := c.Open(th, path, vfs.O_RDONLY)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, chunk)
	var off int64
	reads := 0
	for {
		n, err := c.Pread(th, fd, buf, int64(len(buf)), off)
		if err != nil {
			panic(err)
		}
		reads++
		if n == 0 {
			break
		}
		off += int64(n)
	}
	c.Close(th, fd)
	return reads
}

func TestOpenReadCloseCounters(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/img.jpg", 88*1024)
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/img.jpg", 1<<20)
	})
	rec := r.posixRec(t, "/data/img.jpg")
	if got := rec.Counters[POSIX_OPENS]; got != 1 {
		t.Errorf("OPENS = %d", got)
	}
	// One data read + one zero-length EOF read: TF's signature 2x pattern.
	if got := rec.Counters[POSIX_READS]; got != 2 {
		t.Errorf("READS = %d", got)
	}
	if got := rec.Counters[POSIX_BYTES_READ]; got != 88*1024 {
		t.Errorf("BYTES_READ = %d", got)
	}
	// Zero read lands in the 0-100 bucket; 88KB read in 10K-100K.
	if got := rec.Counters[POSIX_SIZE_READ_0_100]; got != 1 {
		t.Errorf("SIZE_READ_0_100 = %d", got)
	}
	if got := rec.Counters[POSIX_SIZE_READ_10K_100K]; got != 1 {
		t.Errorf("SIZE_READ_10K_100K = %d", got)
	}
	// The zero-length EOF read is sequential AND consecutive; the first
	// read is neither — the paper's 50/50 split per file.
	if got := rec.Counters[POSIX_SEQ_READS]; got != 1 {
		t.Errorf("SEQ_READS = %d", got)
	}
	if got := rec.Counters[POSIX_CONSEC_READS]; got != 1 {
		t.Errorf("CONSEC_READS = %d", got)
	}
	if rec.FCounters[POSIX_F_READ_TIME] <= 0 {
		t.Error("READ_TIME not accumulated")
	}
	if rec.FCounters[POSIX_F_OPEN_START_TIMESTAMP] > rec.FCounters[POSIX_F_CLOSE_END_TIMESTAMP] {
		t.Error("timestamps out of order")
	}
}

func TestChunkedReadSeqConsec(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/mal.bytes", 4<<20) // 4MiB in 1MiB chunks
	reads := 0
	r.run(t, func(th *sim.Thread) {
		reads = readWholeFileTFStyle(th, r.c, "/data/mal.bytes", 1<<20)
	})
	if reads != 5 { // 4 data + 1 zero
		t.Fatalf("reads = %d", reads)
	}
	rec := r.posixRec(t, "/data/mal.bytes")
	if got := rec.Counters[POSIX_READS]; got != 5 {
		t.Errorf("READS = %d", got)
	}
	// Chunks 2..4 and the zero read are consecutive: 4 of 5.
	if got := rec.Counters[POSIX_CONSEC_READS]; got != 4 {
		t.Errorf("CONSEC_READS = %d", got)
	}
	if got := rec.Counters[POSIX_SEQ_READS]; got != 4 {
		t.Errorf("SEQ_READS = %d", got)
	}
	// Exactly-1MiB reads land in the upper-inclusive 100K-1M bucket.
	if got := rec.Counters[POSIX_SIZE_READ_100K_1M]; got != 4 {
		t.Errorf("SIZE_READ_100K_1M = %d", got)
	}
	if got := rec.Counters[POSIX_MAX_BYTE_READ]; got != 4<<20-1 {
		t.Errorf("MAX_BYTE_READ = %d", got)
	}
}

func TestAccessSizeTop4(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/f", 10<<20)
	r.run(t, func(th *sim.Thread) {
		fd, _ := r.c.Open(th, "/data/f", vfs.O_RDONLY)
		buf1 := make([]byte, 1024)
		buf2 := make([]byte, 4096)
		for i := 0; i < 5; i++ {
			r.c.Pread(th, fd, buf1, int64(len(buf1)), int64(i)*1024)
		}
		for i := 0; i < 3; i++ {
			r.c.Pread(th, fd, buf2, int64(len(buf2)), int64(i)*4096)
		}
		r.c.Close(th, fd)
	})
	snap := snapshotNow(t, r)
	rec, ok := snap.PosixByID(RecordID("/data/f"))
	if !ok {
		t.Fatal("record missing from snapshot")
	}
	if rec.Counters[POSIX_ACCESS1_ACCESS] != 1024 || rec.Counters[POSIX_ACCESS1_COUNT] != 5 {
		t.Errorf("ACCESS1 = %d x%d", rec.Counters[POSIX_ACCESS1_ACCESS], rec.Counters[POSIX_ACCESS1_COUNT])
	}
	if rec.Counters[POSIX_ACCESS2_ACCESS] != 4096 || rec.Counters[POSIX_ACCESS2_COUNT] != 3 {
		t.Errorf("ACCESS2 = %d x%d", rec.Counters[POSIX_ACCESS2_ACCESS], rec.Counters[POSIX_ACCESS2_COUNT])
	}
}

func snapshotNow(t *testing.T, r *rig) *Log {
	t.Helper()
	var snap *Log
	r.run(t, func(th *sim.Thread) { snap = r.rt.Snapshot(th) })
	return snap
}

// TestLseekTracksOffsetForRead pins the classification of a file's first
// read at a nonzero offset: a pread at offset 5000 is sequential against
// the initial state 0 but not consecutive.
func TestLseekTracksOffsetForRead(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/seek", 10000)
	r.run(t, func(th *sim.Thread) {
		fd, _ := r.c.Open(th, "/data/seek", vfs.O_RDONLY)
		buf := make([]byte, 100)
		r.c.Pread(th, fd, buf, int64(len(buf)), 5000)
		r.c.Close(th, fd)
	})
	rec := r.posixRec(t, "/data/seek")
	if got := rec.Counters[POSIX_MAX_BYTE_READ]; got != 5099 {
		t.Errorf("MAX_BYTE_READ = %d", got)
	}
	if rec.Counters[POSIX_SEQ_READS] != 1 || rec.Counters[POSIX_CONSEC_READS] != 0 {
		t.Errorf("SEQ=%d CONSEC=%d", rec.Counters[POSIX_SEQ_READS], rec.Counters[POSIX_CONSEC_READS])
	}
}

func TestStdioCheckpointPattern(t *testing.T) {
	r := newRig(DefaultConfig())
	r.run(t, func(th *sim.Thread) {
		st, err := r.c.Fopen(th, "/data/model.ckpt", "w")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 140; i++ { // the paper's ~140 fwrites per checkpoint
			r.c.Fwrite(th, st, make([]byte, 64*1024))
		}
		r.c.Fclose(th, st)
	})
	recs := r.rt.Stdio.Records()
	if len(recs) != 1 {
		t.Fatalf("stdio records = %d", len(recs))
	}
	rec := recs[0]
	if got := rec.Counters[STDIO_WRITES]; got != 140 {
		t.Errorf("STDIO_WRITES = %d", got)
	}
	if got := rec.Counters[STDIO_BYTES_WRITTEN]; got != 140*64*1024 {
		t.Errorf("STDIO_BYTES_WRITTEN = %d", got)
	}
	if got := rec.Counters[STDIO_OPENS]; got != 1 {
		t.Errorf("STDIO_OPENS = %d", got)
	}
	// STDIO writes must NOT appear in the POSIX module: libc internals
	// bypass the PLT.
	for _, prec := range r.rt.Posix.Records() {
		if prec.Counters[POSIX_WRITES] != 0 {
			t.Error("stdio flush leaked into POSIX module")
		}
	}
}

func TestDXTSegments(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/tr", 3<<20)
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/tr", 1<<20)
	})
	recs := r.rt.DXT.Records()
	if len(recs) != 1 {
		t.Fatalf("dxt records = %d", len(recs))
	}
	segs := recs[0].ReadSegs
	if len(segs) != 4 { // 3 data + zero read
		t.Fatalf("segments = %d", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start < segs[i-1].End {
			t.Error("segments overlap in time for single thread")
		}
	}
	last := segs[len(segs)-1]
	if last.Length != 0 {
		t.Errorf("final segment length = %d, want 0 (EOF probe)", last.Length)
	}
	if segs[0].Offset != 0 || segs[1].Offset != 1<<20 {
		t.Errorf("segment offsets = %d, %d", segs[0].Offset, segs[1].Offset)
	}
}

func TestDXTSegmentCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDXTSegsPerRecord = 3
	r := newRig(cfg)
	r.fs.CreateFile("/data/capped", 10<<20)
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/capped", 1<<20)
	})
	rec := r.rt.DXT.Records()[0]
	if len(rec.ReadSegs) != 3 {
		t.Fatalf("segments = %d, want cap 3", len(rec.ReadSegs))
	}
	if rec.Dropped != 8 { // 11 total reads - 3 kept
		t.Fatalf("dropped = %d", rec.Dropped)
	}
}

func TestRecordCapUntracked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRecordsPerModule = 2
	r := newRig(cfg)
	for _, n := range []string{"a", "b", "c", "d"} {
		r.fs.CreateFile("/data/"+n, 100)
	}
	r.run(t, func(th *sim.Thread) {
		for _, n := range []string{"a", "b", "c", "d"} {
			fd, _ := r.c.Open(th, "/data/"+n, vfs.O_RDONLY)
			r.c.Close(th, fd)
		}
	})
	if got := r.rt.Posix.RecordCount(); got != 2 {
		t.Fatalf("records = %d", got)
	}
	if r.rt.Posix.Untracked != 2 {
		t.Fatalf("untracked = %d", r.rt.Posix.Untracked)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/s1", 1000)
	var snap1 *Log
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/s1", 1<<20)
		snap1 = r.rt.Snapshot(th)
		readWholeFileTFStyle(th, r.c, "/data/s1", 1<<20)
	})
	rec1, _ := snap1.PosixByID(RecordID("/data/s1"))
	if rec1.Counters[POSIX_READS] != 2 {
		t.Fatalf("snapshot READS = %d", rec1.Counters[POSIX_READS])
	}
	// The live record advanced; the snapshot must not have.
	live := r.posixRec(t, "/data/s1")
	if live.Counters[POSIX_READS] != 4 {
		t.Fatalf("live READS = %d", live.Counters[POSIX_READS])
	}
	if rec1.Counters[POSIX_READS] != 2 {
		t.Fatal("snapshot mutated by later I/O")
	}
}

// TestStdioAndDXTRecordCaps runs POSIX and STDIO traffic over five files
// with a cap of two records per module and STDIO tracing on: STDIO keeps
// its first two files and counts every fopen past them as untracked; DXT,
// fed by both modules, keeps the first two files either traces, whichever
// module traced them; and a snapshot's STDIO records and DXT segments do
// not move under later I/O.
func TestStdioAndDXTRecordCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRecordsPerModule = 2
	cfg.DXTStdio = true
	r := newRig(cfg)
	for _, n := range []string{"p1", "p2", "s2"} {
		r.fs.CreateFile("/data/"+n, 1000)
	}
	id := RecordID
	var snap *Log
	var snapDXT []DXTRecord // deep copy of snap.DXT taken at the snapshot
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/p1", 1<<20) // POSIX and DXT record 1
		s1, err := r.c.Fopen(th, "/data/s1", "w")        // STDIO record 1
		if err != nil {
			t.Fatal(err)
		}
		r.c.Fwrite(th, s1, make([]byte, 100))     // DXT record 2
		s2, err := r.c.Fopen(th, "/data/s2", "r") // STDIO record 2
		if err != nil {
			t.Fatal(err)
		}
		r.c.Fread(th, s2, nil, 200)               // DXT full: not traced
		s3, err := r.c.Fopen(th, "/data/s3", "w") // STDIO full: untracked
		if err != nil {
			t.Fatal(err)
		}
		r.c.Fwrite(th, s3, make([]byte, 50))
		r.c.Fclose(th, s3)
		readWholeFileTFStyle(th, r.c, "/data/p2", 1<<20) // POSIX record 2, DXT full

		snap = r.rt.Snapshot(th)
		for _, rec := range snap.DXT {
			rec.ReadSegs = append([]Segment(nil), rec.ReadSegs...)
			rec.WriteSegs = append([]Segment(nil), rec.WriteSegs...)
			snapDXT = append(snapDXT, rec)
		}

		r.c.Fwrite(th, s1, make([]byte, 100))
		r.c.Fread(th, s2, nil, 200)
		readWholeFileTFStyle(th, r.c, "/data/p1", 1<<20)
		if s3, err = r.c.Fopen(th, "/data/s3", "r"); err != nil {
			t.Fatal(err)
		}
		for _, st := range []*vfs.Stream{s1, s2, s3} {
			r.c.Fclose(th, st)
		}
	})

	// STDIO cap: the first two files, in first-seen order; each fopen
	// past the cap counts once.
	stdio := r.rt.Stdio.Records()
	if len(stdio) != 2 || stdio[0].ID != id("/data/s1") || stdio[1].ID != id("/data/s2") {
		t.Fatalf("STDIO records = %+v, want s1 and s2", stdio)
	}
	if r.rt.Stdio.Untracked != 2 {
		t.Fatalf("STDIO untracked = %d, want 2", r.rt.Stdio.Untracked)
	}
	if w, b := stdio[0].Counters[STDIO_WRITES], stdio[0].Counters[STDIO_BYTES_WRITTEN]; w != 2 || b != 200 {
		t.Fatalf("live s1 writes = %d, bytes = %d, want 2, 200", w, b)
	}
	if got := stdio[1].Counters[STDIO_READS]; got != 2 {
		t.Fatalf("live s2 reads = %d, want 2", got)
	}
	if got := r.rt.Posix.RecordCount(); got != 2 || r.rt.Posix.Untracked != 0 {
		t.Fatalf("POSIX records = %d, untracked = %d, want 2, 0", got, r.rt.Posix.Untracked)
	}

	// DXT cap: the first two files traced by either module, so p2 (a
	// tracked POSIX record) and s2 (a tracked STDIO record) have none.
	dxt := r.rt.DXT.Records()
	if len(dxt) != 2 || dxt[0].ID != id("/data/p1") || dxt[1].ID != id("/data/s1") {
		t.Fatalf("DXT records = %d, want p1 then s1", len(dxt))
	}
	if len(dxt[0].ReadSegs) != 4 || len(dxt[0].WriteSegs) != 0 {
		t.Fatalf("live p1 segments = %d read, %d write, want 4, 0", len(dxt[0].ReadSegs), len(dxt[0].WriteSegs))
	}
	if len(dxt[1].WriteSegs) != 2 || len(dxt[1].ReadSegs) != 0 || dxt[1].WriteSegs[1].Offset != 100 {
		t.Fatalf("live s1 segments = %+v, want two writes at 0 and 100", dxt[1].WriteSegs)
	}

	// The snapshot holds the counts and segments of its instant.
	if len(snap.Stdio) != 2 {
		t.Fatalf("snapshot STDIO records = %d", len(snap.Stdio))
	}
	if w, b := snap.Stdio[0].Counters[STDIO_WRITES], snap.Stdio[0].Counters[STDIO_BYTES_WRITTEN]; w != 1 || b != 100 {
		t.Fatalf("snapshot s1 writes = %d, bytes = %d, want 1, 100", w, b)
	}
	if got := snap.Stdio[1].Counters[STDIO_READS]; got != 1 {
		t.Fatalf("snapshot s2 reads = %d, want 1", got)
	}
	if !reflect.DeepEqual(snap.DXT, snapDXT) {
		t.Fatalf("snapshot DXT changed under later I/O:\n%+v\nwant\n%+v", snap.DXT, snapDXT)
	}
	if len(snap.DXT) != 2 || len(snap.DXT[0].ReadSegs) != 2 || len(snap.DXT[1].WriteSegs) != 1 {
		t.Fatalf("snapshot DXT = %+v, want p1 with 2 reads and s1 with 1 write", snap.DXT)
	}
	if &snap.DXT[0].ReadSegs[0] == &dxt[0].ReadSegs[0] || &snap.DXT[1].WriteSegs[0] == &dxt[1].WriteSegs[0] {
		t.Fatal("snapshot DXT segments share storage with the live records")
	}
}

func TestSnapshotDiffGivesSessionCounts(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/w1", 2000)
	r.fs.CreateFile("/data/w2", 2000)
	var before, after *Log
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/w1", 1<<20)
		before = r.rt.Snapshot(th)
		readWholeFileTFStyle(th, r.c, "/data/w2", 1<<20)
		after = r.rt.Snapshot(th)
	})
	var sumBefore, sumAfter int64
	for _, rec := range before.Posix {
		sumBefore += rec.Counters[POSIX_BYTES_READ]
	}
	for _, rec := range after.Posix {
		sumAfter += rec.Counters[POSIX_BYTES_READ]
	}
	if sumAfter-sumBefore != 2000 {
		t.Fatalf("session bytes = %d, want 2000", sumAfter-sumBefore)
	}
	if after.JobEnd <= before.JobEnd {
		t.Fatal("snapshot times not increasing")
	}
}

func TestUninstrumentedWhenNotAttached(t *testing.T) {
	// Without GOT patching, no records appear (transparent no-profiler
	// baseline for the Fig 5 overhead study).
	k := sim.NewKernel()
	fs := vfs.New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	fs.AddMount(&vfs.Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1})
	proc := dynload.NewProcess()
	proc.LinkStartup(nil, libc.NewLibrary(fs))
	rt := NewRuntime(DefaultConfig(), k.Now())
	c := libc.Bind(proc)
	fs.CreateFile("/data/x", 100)
	k.Spawn("app", func(th *sim.Thread) {
		fd, _ := c.Open(th, "/data/x", vfs.O_RDONLY)
		c.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Posix.RecordCount() != 0 {
		t.Fatal("records recorded without attachment")
	}
}

func TestRecordIDStable(t *testing.T) {
	a := RecordID("/data/file1")
	b := RecordID("/data/file1")
	c := RecordID("/data/file2")
	if a != b {
		t.Fatal("RecordID not deterministic")
	}
	if a == c {
		t.Fatal("RecordID collision on different paths")
	}
}

func TestNilBufferReadsRecordLikeRealBuffer(t *testing.T) {
	// Count-only reads (nil buffer) through the patched GOT must produce
	// the same POSIX/STDIO records as materializing reads of the same spans.
	read := func(buf []byte) *rig {
		r := newRig(DefaultConfig())
		r.fs.CreateFile("/data/f", 1000)
		r.run(t, func(th *sim.Thread) {
			fd, _ := r.c.Open(th, "/data/f", vfs.O_RDONLY)
			r.c.Pread(th, fd, buf, 600, 0)
			r.c.Pread(th, fd, buf, 600, 600)
			r.c.Pread(th, fd, buf, 600, 1000) // zero-length EOF probe
			r.c.Close(th, fd)
			st, _ := r.c.Fopen(th, "/data/f", "r")
			r.c.Fread(th, st, buf, 600)
			r.c.Fclose(th, st)
		})
		return r
	}
	withBuf, nilBuf := read(make([]byte, 600)), read(nil)

	pm, pd := withBuf.posixRec(t, "/data/f"), nilBuf.posixRec(t, "/data/f")
	if pm.Counters != pd.Counters {
		t.Fatalf("POSIX counters diverged:\nreal buffer %v\nnil buffer  %v", pm.Counters, pd.Counters)
	}
	sm, sd := withBuf.rt.Stdio.Records(), nilBuf.rt.Stdio.Records()
	if len(sm) != 1 || len(sd) != 1 {
		t.Fatalf("stdio records = %d, %d", len(sm), len(sd))
	}
	if sm[0].Counters != sd[0].Counters {
		t.Fatalf("STDIO counters diverged:\nreal buffer %v\nnil buffer  %v", sm[0].Counters, sd[0].Counters)
	}
	if sd[0].Counters[STDIO_READS] != 1 || sd[0].Counters[STDIO_BYTES_READ] != 600 {
		t.Fatalf("nil-buffer fread not recorded: %v", sd[0].Counters)
	}
}
