package libc

import (
	"testing"

	"repro/internal/dynload"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vfs"
)

func newProc() (*dynload.Process, *vfs.FS) {
	fs := vfs.New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	fs.AddMount(&vfs.Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1})
	p := dynload.NewProcess()
	p.LinkStartup(nil, NewLibrary(fs))
	return p, fs
}

func TestCallsRouteThroughGOT(t *testing.T) {
	p, fs := newProc()
	fs.CreateFile("/data/x", 64)
	c := Bind(p)
	k := sim.NewKernel()
	k.Spawn("t", func(th *sim.Thread) {
		fd, err := c.Open(th, "/data/x", vfs.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if n, _ := c.Pread(th, fd, buf, int64(len(buf)), 0); n != 64 {
			t.Fatalf("pread = %d", n)
		}
		if err := c.Close(th, fd); err != nil {
			t.Fatal(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPatchInterceptsCalls(t *testing.T) {
	p, fs := newProc()
	fs.CreateFile("/data/y", 10)
	c := Bind(p)

	var intercepted int
	realOpen := p.MustGOT("open").Fn().(OpenFunc)
	p.PatchGOT("open", OpenFunc(func(th *sim.Thread, path string, flags int) (int, error) {
		intercepted++
		return realOpen(th, path, flags)
	}))

	k := sim.NewKernel()
	k.Spawn("t", func(th *sim.Thread) {
		fd, err := c.Open(th, "/data/y", vfs.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		c.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if intercepted != 1 {
		t.Fatalf("intercepted = %d, want 1", intercepted)
	}
	p.RestoreGOT("open")

	k = sim.NewKernel()
	k.Spawn("t", func(th *sim.Thread) {
		fd, _ := c.Open(th, "/data/y", vfs.O_RDONLY)
		c.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if intercepted != 1 {
		t.Fatal("restored GOT still intercepts")
	}
}

func TestIsIOSymbol(t *testing.T) {
	for _, s := range IOSymbols {
		if !IsIOSymbol(s) {
			t.Fatalf("IsIOSymbol(%q) = false", s)
		}
	}
	if IsIOSymbol("malloc") || IsIOSymbol("") {
		t.Fatal("non-IO symbol accepted")
	}
}

func TestLibraryExportsAllIOSymbols(t *testing.T) {
	fs := vfs.New()
	lib := NewLibrary(fs)
	for _, s := range IOSymbols {
		if _, ok := lib.Sym(s); !ok {
			t.Fatalf("libc.so missing %q", s)
		}
	}
}

func TestStdioThroughGOT(t *testing.T) {
	p, fs := newProc()
	c := Bind(p)
	k := sim.NewKernel()
	k.Spawn("t", func(th *sim.Thread) {
		st, err := c.Fopen(th, "/data/new.txt", "w")
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := c.Fwrite(th, st, []byte("hi")); n != 2 {
			t.Fatalf("fwrite = %d", n)
		}
		// The write is buffered; Fclose flushes it to the file.
		if err := c.Fclose(th, st); err != nil {
			t.Fatal(err)
		}
		ino, _ := fs.Lookup("/data/new.txt")
		if ino.Size != 2 {
			t.Fatalf("size = %d, want 2", ino.Size)
		}
		// Writes are counted, not stored: the read returns the written
		// count of the file's procedural bytes.
		st, _ = c.Fopen(th, "/data/new.txt", "r")
		buf := make([]byte, 4)
		n, _ := c.Fread(th, st, buf, int64(len(buf)))
		if n != 2 || vfs.ChecksumUpdate(vfs.ChecksumSeed(), buf[:n]) != ino.ContentChecksum(0, 2) {
			t.Fatalf("fread = %d %q", n, buf[:n])
		}
		if n, _ := c.Fread(th, st, buf, int64(len(buf))); n != 0 {
			t.Fatalf("fread at EOF = %d", n)
		}
		c.Fclose(th, st)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
