package vfs

import "repro/internal/sim"

// View is one node's window onto a shared FS: the same namespace and
// devices, but node-private client state (warm metadata, data cache).
// Descriptors opened through a view remember their node, so the plain
// FS.Pread and FS.Close that follow resolve against that node's cache.
// NodeView(0) behaves exactly like the plain FS methods.
type View struct {
	fs   *FS
	node int
}

// NodeView returns node's syscall surface.
func (fs *FS) NodeView(node int) *View {
	checkNode(node)
	return &View{fs: fs, node: node}
}

// Open opens a file as this node, charging the node's cold metadata cost.
func (v *View) Open(t *sim.Thread, p string, flags int) (int, error) {
	return v.fs.openNode(t, v.node, p, flags)
}

// Stdio returns the STDIO layer bound to this node.
func (v *View) Stdio() *Stdio { return NewStdioNode(v.fs, v.node) }
