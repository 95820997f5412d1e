// Package core implements tf-Darshan, the paper's contribution: a
// TensorFlow profiler tracer that attaches the Darshan instrumentation
// library at runtime (dlopen + GOT patching, no LD_PRELOAD), extracts
// Darshan's module buffers during execution, analyzes profiling windows
// in situ, and exports the results for TensorBoard — plus the staging
// advisor that turns the analysis into the paper's Fig. 11b optimization.
package core

import (
	"errors"
	"fmt"

	"repro/internal/darshan"
	"repro/internal/dynload"
	"repro/internal/libc"
	"repro/internal/sim"
)

// ErrNotAttached is returned when extraction is attempted before Attach.
var ErrNotAttached = errors.New("core: darshan not attached")

// Wrapper is tf-Darshan's middle-man between the TensorFlow layer and the
// Darshan layer (paper §III-B): it loads libdarshan.so into the process at
// runtime, scans the GOT for the I/O symbols, patches them to Darshan
// wrappers, and manages profile-data extraction through the symbols the
// paper adds to the shared library.
type Wrapper struct {
	proc     *dynload.Process
	lib      *dynload.Library
	wrapFn   darshan.WrapSymbolFunc
	snapFn   darshan.SnapshotFunc
	lookupFn darshan.LookupNameFunc
	attached bool
	patched  []string
}

// NewWrapper returns an unattached wrapper for the process.
func NewWrapper(proc *dynload.Process) *Wrapper {
	return &Wrapper{proc: proc}
}

// Attached reports whether instrumentation is live.
func (w *Wrapper) Attached() bool { return w.attached }

// PatchedSymbols returns the symbols currently redirected.
func (w *Wrapper) PatchedSymbols() []string {
	return append([]string(nil), w.patched...)
}

// Attach performs the runtime attachment: dlopen("libdarshan.so"), dlsym
// the extraction functions, scan the GOT for I/O symbols and patch each to
// its Darshan wrapper. Idempotent.
func (w *Wrapper) Attach() error {
	if w.attached {
		return nil
	}
	lib, err := w.proc.Dlopen(darshan.SonameDarshan)
	if err != nil {
		return fmt.Errorf("core: attach: %w", err)
	}
	w.lib = lib
	wrapAny, err := w.proc.Dlsym(lib, darshan.SymWrapSymbol)
	if err != nil {
		return fmt.Errorf("core: attach: %w", err)
	}
	snapAny, err := w.proc.Dlsym(lib, darshan.SymSnapshot)
	if err != nil {
		return fmt.Errorf("core: attach: %w", err)
	}
	lookupAny, err := w.proc.Dlsym(lib, darshan.SymLookupName)
	if err != nil {
		return fmt.Errorf("core: attach: %w", err)
	}
	w.wrapFn = wrapAny.(darshan.WrapSymbolFunc)
	w.snapFn = snapAny.(darshan.SnapshotFunc)
	w.lookupFn = lookupAny.(darshan.LookupNameFunc)

	for _, sym := range w.proc.ScanGOT(libc.IsIOSymbol) {
		entry := w.proc.MustGOT(sym)
		if entry.Patched() {
			continue // already interposed (e.g. preloaded Darshan)
		}
		wrapped, ok := w.wrapFn(sym, entry.Fn())
		if !ok {
			continue
		}
		if _, err := w.proc.PatchGOT(sym, wrapped); err != nil {
			return fmt.Errorf("core: attach: %w", err)
		}
		w.patched = append(w.patched, sym)
	}
	w.attached = true
	return nil
}

// Detach restores all patched GOT entries, stopping instrumentation at
// runtime — the capability Table I credits to tf-Darshan.
func (w *Wrapper) Detach() error {
	if !w.attached {
		return nil
	}
	for _, sym := range w.patched {
		if err := w.proc.RestoreGOT(sym); err != nil {
			return fmt.Errorf("core: detach: %w", err)
		}
	}
	w.patched = nil
	w.attached = false
	return nil
}

// Snapshot extracts a copy of Darshan's module buffers at the current
// instant (the paper's augmented data-extraction call).
func (w *Wrapper) Snapshot(t *sim.Thread) (*darshan.Log, error) {
	if w.snapFn == nil {
		return nil, ErrNotAttached
	}
	return w.snapFn(t), nil
}

// LookupName resolves a Darshan record id to a file path (exported through
// dlsym, as in the paper).
func (w *Wrapper) LookupName(id uint64) (string, bool) {
	if w.lookupFn == nil {
		return "", false
	}
	return w.lookupFn(id)
}
