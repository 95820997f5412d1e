package vfs

import (
	"fmt"
	"path"

	"repro/internal/sim"
)

func (fs *FS) syscall(t *sim.Thread) {
	t.Sleep(syscallCPU)
}

// Open opens a file, charging cold metadata I/O on first touch. It returns
// a file descriptor. FS-level syscalls are the single-node surface: they
// run as node 0 (identical to NodeView(0)).
func (fs *FS) Open(t *sim.Thread, p string, flags int) (int, error) {
	return fs.openNode(t, 0, p, flags)
}

func (fs *FS) openNode(t *sim.Thread, node int, p string, flags int) (int, error) {
	fs.syscall(t)
	p = path.Clean(p)
	ino, ok := fs.inodes[p]
	if !ok {
		return -1, fmt.Errorf("open %s: %w", p, ErrNotExist)
	}
	fs.chargeColdOpen(t, node, ino)
	fd := fs.nextFD
	fs.nextFD++
	fs.fds[fd] = &openFile{inode: ino, node: node, flags: flags}
	return fd, nil
}

// Close closes a file descriptor.
func (fs *FS) Close(t *sim.Thread, fd int) error {
	fs.syscall(t)
	of, ok := fs.fds[fd]
	if !ok || of.closed {
		return ErrBadFD
	}
	of.closed = true
	delete(fs.fds, fd)
	return nil
}

func (fs *FS) lookupFD(fd int) (*openFile, error) {
	of, ok := fs.fds[fd]
	if !ok || of.closed {
		return nil, ErrBadFD
	}
	return of, nil
}

func accMode(flags int) int { return flags & 0x3 }

// preadSpan is the common pread path: it charges the syscall entry,
// validates the descriptor and offset, clamps count to EOF and charges the
// device read for the resulting span (served from the opener node's data
// cache, a peer's, or the backing device). Content materialization is left
// to the caller, so count-only reads charge identical simulated time
// without generating a single byte.
func (fs *FS) preadSpan(t *sim.Thread, fd int, count, off int64) (*openFile, int64, error) {
	fs.syscall(t)
	of, err := fs.lookupFD(fd)
	if err != nil {
		return nil, -1, err
	}
	if accMode(of.flags) == O_WRONLY {
		return nil, -1, ErrWriteOnly
	}
	if off < 0 || count < 0 {
		return nil, -1, ErrInvalid
	}
	ino := of.inode
	if off >= ino.Size || count == 0 {
		return of, 0, nil // EOF: no device access
	}
	n := count
	if off+n > ino.Size {
		n = ino.Size - off
	}
	if err := fs.dataReadFault(of.node, false); err != nil {
		return nil, -1, err
	}
	fs.readData(t, of.node, ino, off, n)
	return of, n, nil
}

// Pread reads into buf at the given offset without moving the file offset.
// Reading at or past EOF returns 0 bytes and no error, the POSIX behaviour
// TensorFlow's read loop relies on to detect end of file.
func (fs *FS) Pread(t *sim.Thread, fd int, buf []byte, off int64) (int, error) {
	of, n, err := fs.preadSpan(t, fd, int64(len(buf)), off)
	if err != nil {
		return -1, err
	}
	if n > 0 {
		of.inode.fillContent(buf[:n], off)
	}
	return int(n), nil
}

// PreadDiscard is the zero-materialization pread: it behaves exactly like
// Pread(fd, buf[:count], off) — same syscall CPU, same device read, same
// returned byte count — but never generates the file's bytes, for callers
// that only consume the count (TensorFlow's whole-file read loop).
func (fs *FS) PreadDiscard(t *sim.Thread, fd int, count int64, off int64) (int, error) {
	_, n, err := fs.preadSpan(t, fd, count, off)
	if err != nil {
		return -1, err
	}
	return int(n), nil
}

// writeAt performs the device write and bookkeeping of the STDIO write
// path (which bypasses the syscall wrappers, as libc's internals bypass the
// PLT). Only the size and cost of buf count: its bytes are never stored, so
// a written range reads back as the inode's procedural content like every
// other file.
func (fs *FS) writeAt(t *sim.Thread, ino *Inode, buf []byte, off int64) (int, error) {
	n := int64(len(buf))
	if n == 0 {
		return 0, nil
	}
	if !ino.alloc {
		fs.allocExtent(ino, 0)
	}
	fs.invalidateCached(ino)
	end := off + n
	if end > ino.Size {
		// Grow: advance the allocator cursor when this file is the most
		// recently allocated region (the common append-only case).
		grow := end - ino.Size
		if ino.Extent+ino.Size == ino.Mnt.cursor {
			ino.Mnt.cursor += grow
		}
		ino.Size = end
	}
	ino.Mnt.Dev.Write(t, ino.Extent+off, n)
	return int(n), nil
}

// OpenFDs returns the number of open descriptors (for leak checks).
func (fs *FS) OpenFDs() int { return len(fs.fds) }
