// Package libc defines the C-library I/O surface of the simulated process:
// the typed signatures of the interposable symbols, the construction of
// "libc.so" over a VFS, and a call façade that routes every invocation
// through the process GOT so interposers (Darshan) see the full call
// stream.
//
// The surface is exactly the calls the simulated TensorFlow makes: the
// pread whole-file loop and the STDIO stream read, the STDIO checkpoint
// writes, and open/close and fopen/fclose around them. pread and fread
// take C's explicit byte count: a nil buffer reads count-only (the default
// whole-file loops), a real one materializes the bytes (the VerifyContent
// referee), and a buffer shorter than count is vfs.ErrInvalid, C's EFAULT.
// A symbol with no production caller stays linked through its Define
// closure and Darshan's wrapper switch all the same, so
// TestEveryCallsMethodHasAProductionCaller checks that every Calls method
// has a caller outside the tests.
package libc

import (
	"repro/internal/dynload"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Typed signatures of the interposable symbols. Darshan wrappers must use
// these exact types so GOT patching is transparent to call sites.
type (
	OpenFunc   func(t *sim.Thread, path string, flags int) (int, error)
	CloseFunc  func(t *sim.Thread, fd int) error
	PreadFunc  func(t *sim.Thread, fd int, buf []byte, count, off int64) (int, error)
	FopenFunc  func(t *sim.Thread, path, mode string) (*vfs.Stream, error)
	FreadFunc  func(t *sim.Thread, st *vfs.Stream, buf []byte, count int64) (int, error)
	FwriteFunc func(t *sim.Thread, st *vfs.Stream, buf []byte) (int, error)
	FcloseFunc func(t *sim.Thread, st *vfs.Stream) error
)

// IOSymbols lists the interposable I/O symbols in the order Darshan's
// modules claim them: POSIX module symbols first, then STDIO.
var IOSymbols = []string{
	"open", "close", "pread",
	"fopen", "fread", "fwrite", "fclose",
}

// IsIOSymbol reports whether s is one of the interposable I/O symbols;
// tf-Darshan's GOT scan uses it as the match predicate.
func IsIOSymbol(s string) bool {
	for _, x := range IOSymbols {
		if x == s {
			return true
		}
	}
	return false
}

// SonameLibc is the soname of the simulated C library.
const SonameLibc = "libc.so"

// NewLibrary builds "libc.so" over fs as node 0 — the single-node surface.
func NewLibrary(fs *vfs.FS) *dynload.Library {
	return NewNodeLibrary(fs, 0)
}

// NewNodeLibrary builds "libc.so" over one node's view of fs: each I/O
// symbol is a closure around the corresponding per-node VFS operation, so
// a process linked against it charges metadata and cache state to its own
// node, not a magically shared client cache. A descriptor remembers the
// node that opened it, so pread and close bind the plain FS methods.
func NewNodeLibrary(fs *vfs.FS, node int) *dynload.Library {
	view := fs.NodeView(node)
	stdio := view.Stdio()
	l := dynload.NewLibrary(SonameLibc)
	l.Define("open", OpenFunc(view.Open))
	l.Define("close", CloseFunc(fs.Close))
	l.Define("pread", PreadFunc(fs.Pread))
	l.Define("fopen", FopenFunc(stdio.Fopen))
	l.Define("fread", FreadFunc(stdio.Fread))
	l.Define("fwrite", FwriteFunc(stdio.Fwrite))
	l.Define("fclose", FcloseFunc(stdio.Fclose))
	return l
}

// Calls is the application-side call façade. Each method resolves its GOT
// entry at call time, so a PatchGOT performed mid-run redirects subsequent
// calls immediately — the property tf-Darshan's runtime start/stop relies
// on.
type Calls struct {
	open   *dynload.GOTEntry
	close_ *dynload.GOTEntry
	pread  *dynload.GOTEntry
	fopen  *dynload.GOTEntry
	fread  *dynload.GOTEntry
	fwrite *dynload.GOTEntry
	fclose *dynload.GOTEntry
}

// Bind resolves all I/O GOT entries of p. The process must have been
// linked against a library exporting the full I/O surface.
func Bind(p *dynload.Process) *Calls {
	return &Calls{
		open:   p.MustGOT("open"),
		close_: p.MustGOT("close"),
		pread:  p.MustGOT("pread"),
		fopen:  p.MustGOT("fopen"),
		fread:  p.MustGOT("fread"),
		fwrite: p.MustGOT("fwrite"),
		fclose: p.MustGOT("fclose"),
	}
}

// Open calls open(2) through the GOT.
func (c *Calls) Open(t *sim.Thread, path string, flags int) (int, error) {
	return c.open.Fn().(OpenFunc)(t, path, flags)
}

// Close calls close(2) through the GOT.
func (c *Calls) Close(t *sim.Thread, fd int) error {
	return c.close_.Fn().(CloseFunc)(t, fd)
}

// Pread calls pread(2) through the GOT; a nil buf reads count-only.
func (c *Calls) Pread(t *sim.Thread, fd int, buf []byte, count, off int64) (int, error) {
	return c.pread.Fn().(PreadFunc)(t, fd, buf, count, off)
}

// Fopen calls fopen(3) through the GOT.
func (c *Calls) Fopen(t *sim.Thread, path, mode string) (*vfs.Stream, error) {
	return c.fopen.Fn().(FopenFunc)(t, path, mode)
}

// Fread calls fread(3) through the GOT; a nil buf reads count-only.
func (c *Calls) Fread(t *sim.Thread, st *vfs.Stream, buf []byte, count int64) (int, error) {
	return c.fread.Fn().(FreadFunc)(t, st, buf, count)
}

// Fwrite calls fwrite(3) through the GOT.
func (c *Calls) Fwrite(t *sim.Thread, st *vfs.Stream, buf []byte) (int, error) {
	return c.fwrite.Fn().(FwriteFunc)(t, st, buf)
}

// Fclose calls fclose(3) through the GOT.
func (c *Calls) Fclose(t *sim.Thread, st *vfs.Stream) error {
	return c.fclose.Fn().(FcloseFunc)(t, st)
}
