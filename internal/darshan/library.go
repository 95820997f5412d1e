package darshan

import (
	"repro/internal/dynload"
	"repro/internal/libc"
	"repro/internal/sim"
)

// SonameDarshan is the soname of the instrumentation library.
const SonameDarshan = "libdarshan.so"

// Exported symbol names of the shared library. They are the augmentation
// the paper adds to stock Darshan ("we implemented several data extraction
// functions in the Darshan shared library"); the wrapper factory is what
// the GOT patcher redirects symbols to.
const (
	SymWrapSymbol = "darshan_wrap_symbol"
	SymSnapshot   = "darshan_runtime_snapshot"
	SymLookupName = "darshan_lookup_record_name"
)

// Exported function signatures (resolved via Dlsym).
type (
	// WrapSymbolFunc returns the instrumented replacement for an I/O
	// symbol, wrapping the real implementation; ok is false for symbols
	// Darshan does not instrument.
	WrapSymbolFunc func(symbol string, real any) (wrapped any, ok bool)
	// SnapshotFunc copies the module buffers at the current instant into
	// a single-process log.
	SnapshotFunc func(t *sim.Thread) *Log
	// LookupNameFunc resolves a record id to a file path.
	LookupNameFunc func(id uint64) (string, bool)
)

// WrapperFor returns the instrumented replacement for symbol around real.
// Unknown symbols return ok=false and stay unpatched.
func (rt *Runtime) WrapperFor(symbol string, real any) (any, bool) {
	switch symbol {
	case "open":
		return rt.Posix.wrapOpen(real.(libc.OpenFunc)), true
	case "close":
		return rt.Posix.wrapClose(real.(libc.CloseFunc)), true
	case "pread":
		return rt.Posix.wrapPread(real.(libc.PreadFunc)), true
	case "fopen":
		return rt.Stdio.wrapFopen(real.(libc.FopenFunc)), true
	case "fread":
		return rt.Stdio.wrapFread(real.(libc.FreadFunc)), true
	case "fwrite":
		return rt.Stdio.wrapFwrite(real.(libc.FwriteFunc)), true
	case "fclose":
		return rt.Stdio.wrapFclose(real.(libc.FcloseFunc)), true
	}
	return nil, false
}

// NewSharedLibrary packages the runtime as "libdarshan.so" for dlopen by
// tf-Darshan's middle-man.
func NewSharedLibrary(rt *Runtime) *dynload.Library {
	lib := dynload.NewLibrary(SonameDarshan)
	lib.Define(SymWrapSymbol, WrapSymbolFunc(rt.WrapperFor))
	lib.Define(SymSnapshot, SnapshotFunc(rt.Snapshot))
	lib.Define(SymLookupName, LookupNameFunc(rt.LookupName))
	return lib
}

// NewPreloadLibrary builds an LD_PRELOAD-style interposition library: it
// exports every I/O symbol of base wrapped with instrumentation, so
// linking it ahead of libc instruments the whole application for its whole
// lifetime — classic Darshan deployment, with no runtime start/stop
// (paper Table I). Symbols Darshan does not instrument are re-exported
// unchanged.
func NewPreloadLibrary(rt *Runtime, base *dynload.Library) *dynload.Library {
	lib := dynload.NewLibrary(SonameDarshan)
	for _, s := range base.Symbols() {
		real, _ := base.Sym(s)
		if wrapped, ok := rt.WrapperFor(s, real); ok {
			lib.Define(s, wrapped)
		} else {
			lib.Define(s, real)
		}
	}
	// The extraction symbols ride along so tooling can still inspect.
	lib.Define(SymWrapSymbol, WrapSymbolFunc(rt.WrapperFor))
	lib.Define(SymSnapshot, SnapshotFunc(rt.Snapshot))
	lib.Define(SymLookupName, LookupNameFunc(rt.LookupName))
	return lib
}
