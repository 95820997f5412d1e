package vfs

import "repro/internal/sim"

// View is one node's window onto a shared FS: the same namespace and
// devices, but node-private client state (warm metadata, data cache).
// Descriptors opened through a view remember their node, so reads that
// follow resolve against that node's cache. NodeView(0) behaves exactly
// like the plain FS methods.
type View struct {
	fs   *FS
	node int
}

// NodeView returns node's syscall surface.
func (fs *FS) NodeView(node int) *View {
	checkNode(node)
	return &View{fs: fs, node: node}
}

// FS returns the backing file system.
func (v *View) FS() *FS { return v.fs }

// Node returns the view's node id.
func (v *View) Node() int { return v.node }

// Open opens a file as this node, charging the node's cold metadata cost.
func (v *View) Open(t *sim.Thread, p string, flags int) (int, error) {
	return v.fs.openNode(t, v.node, p, flags)
}

// Close closes a descriptor.
func (v *View) Close(t *sim.Thread, fd int) error { return v.fs.Close(t, fd) }

// Pread reads at an offset; the descriptor's opener node picks the cache.
func (v *View) Pread(t *sim.Thread, fd int, buf []byte, off int64) (int, error) {
	return v.fs.Pread(t, fd, buf, off)
}

// PreadDiscard is the zero-materialization pread.
func (v *View) PreadDiscard(t *sim.Thread, fd int, count, off int64) (int, error) {
	return v.fs.PreadDiscard(t, fd, count, off)
}

// Read reads at the current offset.
func (v *View) Read(t *sim.Thread, fd int, buf []byte) (int, error) {
	return v.fs.Read(t, fd, buf)
}

// Pwrite writes at an offset.
func (v *View) Pwrite(t *sim.Thread, fd int, buf []byte, off int64) (int, error) {
	return v.fs.Pwrite(t, fd, buf, off)
}

// Write writes at the current offset.
func (v *View) Write(t *sim.Thread, fd int, buf []byte) (int, error) {
	return v.fs.Write(t, fd, buf)
}

// Lseek repositions a descriptor.
func (v *View) Lseek(t *sim.Thread, fd int, off int64, whence int) (int64, error) {
	return v.fs.Lseek(t, fd, off, whence)
}

// Stat stats a path as this node.
func (v *View) Stat(t *sim.Thread, p string) (FileInfo, error) {
	return v.fs.statNode(t, v.node, p)
}

// Fsync syncs a descriptor.
func (v *View) Fsync(t *sim.Thread, fd int) error { return v.fs.Fsync(t, fd) }

// Unlink removes a file.
func (v *View) Unlink(t *sim.Thread, p string) error { return v.fs.Unlink(t, p) }

// Stdio returns the STDIO layer bound to this node.
func (v *View) Stdio() *Stdio { return NewStdioNode(v.fs, v.node) }
