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

// Pread reads count bytes at off into buf without moving the file offset.
// It charges the syscall entry, clamps count to EOF and charges the device
// read for the resulting span (served from the opener node's data cache, a
// peer's, or the backing device). A nil buf is a count-only read: same
// cost, same returned count, but the file's bytes are never generated (the
// whole-file read loops consume only the count). A non-nil buf shorter
// than count is ErrInvalid, C's EFAULT, and touches no device. Reading at
// or past EOF returns 0 bytes and no error, the POSIX behaviour
// TensorFlow's read loop relies on to detect end of file.
func (fs *FS) Pread(t *sim.Thread, fd int, buf []byte, count, off int64) (int, error) {
	fs.syscall(t)
	of, err := fs.lookupFD(fd)
	if err != nil {
		return -1, err
	}
	if accMode(of.flags) == O_WRONLY {
		return -1, ErrWriteOnly
	}
	if off < 0 || count < 0 || buf != nil && int64(len(buf)) < count {
		return -1, ErrInvalid
	}
	ino := of.inode
	if off >= ino.Size || count == 0 {
		return 0, nil // EOF: no device access
	}
	n := min(count, ino.Size-off)
	if err := fs.dataReadFault(of.node, false); err != nil {
		return -1, err
	}
	fs.readData(t, of.node, ino, off, n)
	if buf != nil {
		ino.fillContent(buf[:n], off)
	}
	return int(n), nil
}

// writeAt performs the device write and bookkeeping of n bytes at off for
// the STDIO write path (which bypasses the syscall wrappers, as libc's
// internals bypass the PLT). Writes are counted, never stored, so a
// written range reads back as the inode's procedural content like every
// other file.
func (fs *FS) writeAt(t *sim.Thread, ino *Inode, n, off int64) {
	if n == 0 {
		return
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
}

// OpenFDs returns the number of open descriptors (for leak checks).
func (fs *FS) OpenFDs() int { return len(fs.fds) }
