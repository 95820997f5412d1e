package vfs

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/storage"
)

// testFS builds an FS with one HDD mount at /data and one Optane mount at
// /fast.
func testFS() (*FS, *Mount, *Mount, *storage.HDD, *storage.Flash) {
	fs := New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	opt := storage.NewFlash("nvme0n1", storage.DefaultOptaneParams())
	mData := fs.AddMount(&Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1, DirMetaTrips: 1})
	mFast := fs.AddMount(&Mount{Prefix: "/fast", Dev: opt, OpenMetaTrips: 1, DirMetaTrips: 1})
	return fs, mData, mFast, hdd, opt
}

func runSim(t *testing.T, fn func(th *sim.Thread)) int64 {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("t", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k.Now()
}

func TestOpenReadCloseRoundTrip(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	if _, err := fs.CreateFile("/data/a.bin", 1000); err != nil {
		t.Fatal(err)
	}
	runSim(t, func(th *sim.Thread) {
		fd, err := fs.Open(th, "/data/a.bin", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 400)
		for _, c := range []struct {
			off  int64
			want int
		}{{0, 400}, {400, 400}, {800, 200}, {1000, 0}} { // partial, then EOF
			if n, err := fs.Pread(th, fd, buf, int64(len(buf)), c.off); err != nil || n != c.want {
				t.Fatalf("Pread at %d = %d, %v; want %d", c.off, n, err, c.want)
			}
		}
		if err := fs.Close(th, fd); err != nil {
			t.Fatal(err)
		}
	})
	c := hdd.Counters()
	if c.ReadOps != 3 { // EOF read touches no device
		t.Fatalf("device reads = %d, want 3", c.ReadOps)
	}
	if c.BytesRead != 1000+8*storage.KiB { // data + cold dir block + cold inode block
		t.Fatalf("bytes read = %d", c.BytesRead)
	}
	if fs.OpenFDs() != 0 {
		t.Fatalf("leaked %d fds", fs.OpenFDs())
	}
}

func TestPreadAtEOFReturnsZeroWithoutDeviceAccess(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	fs.CreateFile("/data/f", 100)
	runSim(t, func(th *sim.Thread) {
		fd, _ := fs.Open(th, "/data/f", O_RDONLY)
		buf := make([]byte, 64)
		before := hdd.Counters().ReadOps
		n, err := fs.Pread(th, fd, buf, int64(len(buf)), 100)
		if n != 0 || err != nil {
			t.Fatalf("Pread at EOF = %d, %v", n, err)
		}
		if hdd.Counters().ReadOps != before {
			t.Fatal("EOF pread touched the device")
		}
		fs.Close(th, fd)
	})
}

func TestPreadNilBufferMatchesRealBuffer(t *testing.T) {
	// Same device traffic, same simulated time, same returned counts as a
	// materializing pread — just no bytes.
	fs, _, _, hdd, _ := testFS()
	fs.CreateFile("/data/d", 1000)
	var tPread, tNil int64
	tPread = runSim(t, func(th *sim.Thread) {
		fd, _ := fs.Open(th, "/data/d", O_RDONLY)
		buf := make([]byte, 400)
		var off int64
		for _, want := range []int{400, 400, 200, 0} {
			n, err := fs.Pread(th, fd, buf, 400, off)
			if err != nil || n != want {
				t.Fatalf("Pread = %d, %v (want %d)", n, err, want)
			}
			off += int64(n)
		}
		fs.Close(th, fd)
	})
	readOps, bytesRead := hdd.Counters().ReadOps, hdd.Counters().BytesRead

	fs2, _, _, hdd2, _ := testFS()
	fs2.CreateFile("/data/d", 1000)
	tNil = runSim(t, func(th *sim.Thread) {
		fd, _ := fs2.Open(th, "/data/d", O_RDONLY)
		var off int64
		for _, want := range []int{400, 400, 200, 0} {
			n, err := fs2.Pread(th, fd, nil, 400, off)
			if err != nil || n != want {
				t.Fatalf("nil-buffer Pread = %d, %v (want %d)", n, err, want)
			}
			off += int64(n)
		}
		fs2.Close(th, fd)
	})
	if hdd2.Counters().ReadOps != readOps || hdd2.Counters().BytesRead != bytesRead {
		t.Fatalf("device traffic diverged: nil buffer %+v, real buffer ops=%d bytes=%d",
			hdd2.Counters(), readOps, bytesRead)
	}
	if tPread != tNil {
		t.Fatalf("simulated time diverged: real buffer %d ns, nil buffer %d ns", tPread, tNil)
	}
}

func TestPreadErrors(t *testing.T) {
	fs, _, _, _, _ := testFS()
	fs.CreateFile("/data/e", 100)
	for _, buf := range [][]byte{nil, make([]byte, 10)} {
		runSim(t, func(th *sim.Thread) {
			if _, err := fs.Pread(th, 99, buf, 10, 0); !errors.Is(err, ErrBadFD) {
				t.Fatalf("buf len %d: bad fd error = %v", len(buf), err)
			}
			fd, _ := fs.Open(th, "/data/e", O_RDONLY)
			if _, err := fs.Pread(th, fd, buf, 10, -1); !errors.Is(err, ErrInvalid) {
				t.Fatalf("buf len %d: negative offset error = %v", len(buf), err)
			}
			if _, err := fs.Pread(th, fd, buf, -1, 0); !errors.Is(err, ErrInvalid) {
				t.Fatalf("buf len %d: negative count error = %v", len(buf), err)
			}
			fs.Close(th, fd)
		})
	}
}

// A non-nil buffer shorter than count is C's EFAULT: both read calls
// return ErrInvalid before any device access (the stream's pending output
// is not flushed either).
func TestShortBufferIsInvalid(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	fs.CreateFile("/data/s", 100)
	short := make([]byte, 3)
	runSim(t, func(th *sim.Thread) {
		fd, _ := fs.Open(th, "/data/s", O_RDONLY)
		st, _ := stdio.Fopen(th, "/data/s", "r+")
		if _, err := stdio.Fwrite(th, st, []byte("ab")); err != nil {
			t.Fatal(err)
		}
		before := hdd.Counters()
		if n, err := fs.Pread(th, fd, short, 4, 0); !errors.Is(err, ErrInvalid) {
			t.Fatalf("Pread(short buf) = %d, %v; want ErrInvalid", n, err)
		}
		if n, err := stdio.Fread(th, st, short, 4); !errors.Is(err, ErrInvalid) {
			t.Fatalf("Fread(short buf) = %d, %v; want ErrInvalid", n, err)
		}
		if got := hdd.Counters(); got != before {
			t.Fatalf("short-buffer reads charged the device: %+v -> %+v", before, got)
		}
		if off := stdio.Ftell(st); off != 2 {
			t.Fatalf("stream offset after rejected fread = %d, want 2", off)
		}
		fs.Close(th, fd)
		stdio.Fclose(th, st)
	})
}

func TestColdMetadataChargedOncePerFile(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	fs.CreateFile("/data/a", 10)
	runSim(t, func(th *sim.Thread) {
		fd, _ := fs.Open(th, "/data/a", O_RDONLY)
		fs.Close(th, fd)
		after1 := hdd.Counters().MetaOps
		fd, _ = fs.Open(th, "/data/a", O_RDONLY)
		fs.Close(th, fd)
		if hdd.Counters().MetaOps != after1 {
			t.Fatal("second open charged metadata again")
		}
	})
	// dir block + inode block
	if got := hdd.Counters().MetaOps; got != 2 {
		t.Fatalf("meta ops = %d, want 2", got)
	}
}

func TestFractionalMetaTripsAmortize(t *testing.T) {
	fs := New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	fs.AddMount(&Mount{Prefix: "/d", Dev: hdd, OpenMetaTrips: 0.25, DirMetaTrips: 0})
	for i := 0; i < 16; i++ {
		fs.CreateFile("/d/f"+string(rune('a'+i)), 10)
	}
	runSim(t, func(th *sim.Thread) {
		for i := 0; i < 16; i++ {
			fd, err := fs.Open(th, "/d/f"+string(rune('a'+i)), O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			fs.Close(th, fd)
		}
	})
	if got := hdd.Counters().MetaOps; got != 4 { // 16 * 0.25
		t.Fatalf("meta ops = %d, want 4", got)
	}
}

// wantProcedural fails unless buf holds ino's procedural bytes at off.
func wantProcedural(t *testing.T, ino *Inode, off int64, buf []byte) {
	t.Helper()
	if got, want := ChecksumUpdate(ChecksumSeed(), buf), ino.ContentChecksum(off, int64(len(buf))); got != want {
		t.Fatalf("bytes at %d..%d are not the inode's procedural content", off, off+int64(len(buf)))
	}
}

// Writes are counted, not stored: a written range reads back, at the
// written size, as the inode's procedural bytes like every other file.
func TestWriteReadBackContent(t *testing.T) {
	fs, _, _, _, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, err := stdio.Fopen(th, "/data/out.bin", "w")
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("hello darshan")
		if n, err := stdio.Fwrite(th, st, msg); n != len(msg) || err != nil {
			t.Fatalf("Fwrite = %d, %v", n, err)
		}
		stdio.Fclose(th, st)

		ino, _ := fs.Lookup("/data/out.bin")
		if ino.Size != int64(len(msg)) {
			t.Fatalf("size = %d, want %d", ino.Size, len(msg))
		}
		fd, _ := fs.Open(th, "/data/out.bin", O_RDONLY)
		buf := make([]byte, len(msg))
		if n, _ := fs.Pread(th, fd, buf, int64(len(buf)), 0); n != len(msg) {
			t.Fatalf("read back %d bytes", n)
		}
		wantProcedural(t, ino, 0, buf)
		if n, _ := fs.Pread(th, fd, buf, int64(len(buf)), int64(len(msg))); n != 0 {
			t.Fatalf("read at EOF = %d", n)
		}
		fs.Close(th, fd)
	})
}

func TestProceduralContentDeterministic(t *testing.T) {
	fs, _, _, _, _ := testFS()
	fs.CreateFile("/data/big", 1<<20)
	var first, second []byte
	read := func() []byte {
		var out []byte
		runSim(t, func(th *sim.Thread) {
			fd, _ := fs.Open(th, "/data/big", O_RDONLY)
			buf := make([]byte, 512)
			fs.Pread(th, fd, buf, int64(len(buf)), 777)
			out = append([]byte(nil), buf...)
			fs.Close(th, fd)
		})
		return out
	}
	first = read()
	second = read()
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("procedural content not deterministic")
		}
	}
}

func TestOpenErrors(t *testing.T) {
	fs, _, _, _, _ := testFS()
	runSim(t, func(th *sim.Thread) {
		if _, err := fs.Open(th, "/data/missing", O_RDONLY); !errors.Is(err, ErrNotExist) {
			t.Fatalf("err = %v", err)
		}
		if _, err := NewStdioNode(fs, 0).Fopen(th, "/nomount/x", "w"); !errors.Is(err, ErrNoMount) {
			t.Fatalf("err = %v", err)
		}
		if err := fs.Close(th, 999); !errors.Is(err, ErrBadFD) {
			t.Fatalf("err = %v", err)
		}
		fs.CreateFile("/data/wo", 10)
		fd, _ := fs.Open(th, "/data/wo", O_WRONLY)
		if _, err := fs.Pread(th, fd, make([]byte, 4), 4, 0); !errors.Is(err, ErrWriteOnly) {
			t.Fatalf("read from O_WRONLY err = %v", err)
		}
		fs.Close(th, fd)
	})
}

func TestMigrateEnforcesCapacity(t *testing.T) {
	// Staging to a too-small fast tier must panic like allocExtent does,
	// not silently overflow the device.
	fs := New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	p := storage.DefaultOptaneParams()
	p.Capacity = 1000
	small := storage.NewFlash("nvme0n1", p)
	fs.AddMount(&Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1, DirMetaTrips: 1})
	mFast := fs.AddMount(&Mount{Prefix: "/fast", Dev: small, OpenMetaTrips: 1, DirMetaTrips: 1})
	if _, err := fs.CreateFile("/data/big", 4000); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Migrate past device capacity did not panic")
		}
	}()
	fs.Migrate("/data/big", mFast)
}

func TestMigrateMovesDataToFastTier(t *testing.T) {
	fs, _, mFast, hdd, opt := testFS()
	fs.CreateFile("/data/small.bin", 500*storage.KiB)
	if err := fs.Migrate("/data/small.bin", mFast); err != nil {
		t.Fatal(err)
	}
	runSim(t, func(th *sim.Thread) {
		fd, err := fs.Open(th, "/data/small.bin", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 500*storage.KiB)
		fs.Pread(th, fd, buf, int64(len(buf)), 0)
		fs.Close(th, fd)
	})
	if hdd.Counters().ReadOps != 0 {
		t.Fatal("migrated file still read from HDD")
	}
	if opt.Counters().BytesRead < 500*storage.KiB {
		t.Fatalf("optane bytes read = %d", opt.Counters().BytesRead)
	}
}

func TestTotalBytesAndFiles(t *testing.T) {
	fs, _, _, _, _ := testFS()
	fs.CreateFile("/data/a", 100)
	fs.CreateFile("/data/b", 200)
	fs.CreateFile("/fast/c", 400)
	if got := fs.TotalBytes("/data"); got != 300 {
		t.Fatalf("TotalBytes(/data) = %d", got)
	}
	if got := fs.TotalBytes(""); got != 700 {
		t.Fatalf("TotalBytes() = %d", got)
	}
	files := fs.Files()
	if len(files) != 3 || files[0] != "/data/a" {
		t.Fatalf("Files = %v", files)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	fs, _, _, _, _ := testFS()
	fs.CreateFile("/data/dup", 1)
	if _, err := fs.CreateFile("/data/dup", 1); !errors.Is(err, ErrExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestExtentsContiguousInCreationOrder(t *testing.T) {
	fs, _, _, _, _ := testFS()
	a, _ := fs.CreateFile("/data/a", 1000)
	b, _ := fs.CreateFile("/data/b", 2000)
	c, _ := fs.CreateFile("/data/c", 3000)
	if a.Extent != 0 || b.Extent != 1000 || c.Extent != 3000 {
		t.Fatalf("extents = %d %d %d", a.Extent, b.Extent, c.Extent)
	}
}

// Property: for any small write pattern, reading the file back returns
// exactly the written count, and those bytes are the inode's procedural
// content over the same range (writes are counted, not stored).
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 || len(data) > 64*1024 {
			return true
		}
		fs, _, _, _, _ := testFS()
		stdio := NewStdioNode(fs, 0)
		ok := true
		k := sim.NewKernel()
		k.Spawn("t", func(th *sim.Thread) {
			st, err := stdio.Fopen(th, "/data/rt", "w")
			if err != nil {
				ok = false
				return
			}
			if n, err := stdio.Fwrite(th, st, data); n != len(data) || err != nil {
				ok = false
			}
			stdio.Fclose(th, st)
			ino, _ := fs.Lookup("/data/rt")
			fd, _ := fs.Open(th, "/data/rt", O_RDONLY)
			buf := make([]byte, len(data)+1)
			n, _ := fs.Pread(th, fd, buf, int64(len(buf)), 0)
			if n != len(data) || ino.Size != int64(len(data)) {
				ok = false
			}
			if ChecksumUpdate(ChecksumSeed(), buf[:n]) != ino.ContentChecksum(0, int64(n)) {
				ok = false
			}
			fs.Close(th, fd)
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pread never returns more bytes than remain before EOF, and the
// sum of a chunked scan equals the file size.
func TestPropertyChunkedScanCoversFile(t *testing.T) {
	f := func(size uint32, chunk uint16) bool {
		sz := int64(size%2_000_000) + 1
		ck := int64(chunk)%65536 + 1
		fs, _, _, _, _ := testFS()
		fs.CreateFile("/data/scan", sz)
		var total int64
		k := sim.NewKernel()
		k.Spawn("t", func(th *sim.Thread) {
			fd, _ := fs.Open(th, "/data/scan", O_RDONLY)
			buf := make([]byte, ck)
			off := int64(0)
			for {
				n, err := fs.Pread(th, fd, buf, int64(len(buf)), off)
				if err != nil || n == 0 {
					break
				}
				total += int64(n)
				off += int64(n)
			}
			fs.Close(th, fd)
		})
		if err := k.Run(); err != nil {
			return false
		}
		return total == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
