package darshan

import (
	"testing"

	"repro/internal/dynload"
	"repro/internal/libc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vfs"
)

func TestSharedLibraryExportsExtractionAPI(t *testing.T) {
	rt := NewRuntime(DefaultConfig(), 0)
	lib := NewSharedLibrary(rt)
	for _, sym := range []string{SymWrapSymbol, SymSnapshot, SymLookupName} {
		if _, ok := lib.Sym(sym); !ok {
			t.Fatalf("libdarshan.so missing %q", sym)
		}
	}
	if lib.Name() != SonameDarshan {
		t.Fatalf("soname = %q", lib.Name())
	}
}

func TestDlopenDlsymAttachFlow(t *testing.T) {
	// The full tf-Darshan middle-man flow against the loader: install
	// libdarshan, dlopen it, dlsym the wrap function, scan + patch the GOT.
	k := sim.NewKernel()
	fs := vfs.New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	fs.AddMount(&vfs.Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1})
	fs.CreateFile("/data/z", 4096)

	proc := dynload.NewProcess()
	proc.LinkStartup(nil, libc.NewLibrary(fs))
	rt := NewRuntime(DefaultConfig(), k.Now())
	proc.Install(NewSharedLibrary(rt))
	calls := libc.Bind(proc)

	lib, err := proc.Dlopen(SonameDarshan)
	if err != nil {
		t.Fatal(err)
	}
	wrapAny, err := proc.Dlsym(lib, SymWrapSymbol)
	if err != nil {
		t.Fatal(err)
	}
	wrap := wrapAny.(WrapSymbolFunc)
	for _, sym := range proc.ScanGOT(libc.IsIOSymbol) {
		e := proc.MustGOT(sym)
		if w, ok := wrap(sym, e.Fn()); ok {
			if _, err := proc.PatchGOT(sym, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(proc.PatchedSymbols()); got != len(libc.IOSymbols) {
		t.Fatalf("patched %d symbols, want %d", got, len(libc.IOSymbols))
	}

	k.Spawn("app", func(th *sim.Thread) {
		fd, _ := calls.Open(th, "/data/z", vfs.O_RDONLY)
		buf := make([]byte, 4096)
		calls.Pread(th, fd, buf, int64(len(buf)), 0)
		calls.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Posix.RecordCount() != 1 {
		t.Fatalf("records = %d", rt.Posix.RecordCount())
	}
	lookupAny, _ := proc.Dlsym(lib, SymLookupName)
	name, ok := lookupAny.(LookupNameFunc)(RecordID("/data/z"))
	if !ok || name != "/data/z" {
		t.Fatalf("lookup = %q, %v", name, ok)
	}
}

func TestPreloadLibraryInstrumentsWholeRun(t *testing.T) {
	// Classic Darshan deployment: LD_PRELOAD-style startup interposition.
	k := sim.NewKernel()
	fs := vfs.New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	fs.AddMount(&vfs.Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1})
	fs.CreateFile("/data/p", 1000)

	base := libc.NewLibrary(fs)
	rt := NewRuntime(DefaultConfig(), k.Now())
	pre := NewPreloadLibrary(rt, base)
	proc := dynload.NewProcess()
	proc.LinkStartup([]*dynload.Library{pre}, base)
	calls := libc.Bind(proc)

	k.Spawn("app", func(th *sim.Thread) {
		fd, _ := calls.Open(th, "/data/p", vfs.O_RDONLY)
		buf := make([]byte, 1000)
		calls.Pread(th, fd, buf, int64(len(buf)), 0)
		calls.Close(th, fd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// No GOT patching happened, yet instrumentation is live via preload.
	if len(proc.PatchedSymbols()) != 0 {
		t.Fatal("preload mode should not patch the GOT")
	}
	rec := rt.Posix.Records()
	if len(rec) != 1 || rec[0].Counters[POSIX_READS] != 1 {
		t.Fatalf("preload instrumentation missed I/O: %+v", rec)
	}
}

func TestWrapperForUnknownSymbol(t *testing.T) {
	rt := NewRuntime(DefaultConfig(), 0)
	if _, ok := rt.WrapperFor("mmap", nil); ok {
		t.Fatal("unknown symbol wrapped")
	}
}
