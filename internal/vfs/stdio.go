package vfs

import (
	"fmt"
	"path"

	"repro/internal/sim"
)

// StdioBufSize is the libc stream buffer size (glibc uses the block size,
// typically 4KiB; TensorFlow's buffered writable file makes much larger
// appends that bypass the buffer, as glibc does for writes >= bufsize).
const StdioBufSize = 4096

// Stream is a buffered STDIO stream (FILE*). Its internal flushes call the
// FS write path directly rather than going through the GOT, mirroring how
// glibc's stdio internals bypass the PLT — which is exactly why the paper's
// checkpoint activity shows up in Darshan's STDIO module but not its POSIX
// module (paper Fig. 6).
type Stream struct {
	fs     *FS
	node   int
	inode  *Inode
	read   bool
	write  bool
	offset int64
	// buffered counts the bytes held in the stream buffer, which start at
	// file offset bufOff. Writes are counted, not stored, so the buffer
	// is only its fill level.
	buffered int64
	bufOff   int64
	closed   bool

	// Flushes records the number of buffer flushes (visible to tests).
	Flushes int64
}

// Offset returns the stream's logical file position (after any buffered
// reads/writes) — the offset instrumentation attributes stream ops to.
func (st *Stream) Offset() int64 { return st.offset }

// Stdio is the libc stream layer over an FS, bound to the node whose libc
// it models (stream metadata and data caching are client-side state).
type Stdio struct {
	fs   *FS
	node int
}

// NewStdioNode returns the STDIO layer for fs as seen from node.
func NewStdioNode(fs *FS, node int) *Stdio {
	checkNode(node)
	return &Stdio{fs: fs, node: node}
}

// Fopen opens a stream. Modes "r", "w", "a" (with optional "+") are
// supported.
func (s *Stdio) Fopen(t *sim.Thread, p, mode string) (*Stream, error) {
	s.fs.syscall(t)
	var rd, wr, trunc, appnd, creat bool
	if len(mode) == 0 {
		return nil, ErrInvalid
	}
	switch mode[0] {
	case 'r':
		rd = true
	case 'w':
		wr, trunc, creat = true, true, true
	case 'a':
		wr, appnd, creat = true, true, true
	default:
		return nil, ErrInvalid
	}
	for _, c := range mode[1:] {
		if c == '+' {
			rd, wr = true, true
		}
	}
	ino, ok := s.fs.inodes[path.Clean(p)]
	if !ok {
		if !creat {
			return nil, fmt.Errorf("fopen %s: %w", p, ErrNotExist)
		}
		m, err := s.fs.MountFor(p)
		if err != nil {
			return nil, err
		}
		ino = s.fs.newInode(path.Clean(p), m)
		ino.warm.add(s.node)
	} else {
		s.fs.chargeColdOpen(t, s.node, ino)
	}
	if trunc {
		ino.Size = 0
	}
	st := &Stream{fs: s.fs, node: s.node, inode: ino, read: rd, write: wr}
	if appnd {
		st.offset = ino.Size
	}
	return st, nil
}

// Fwrite appends len(data) bytes to the stream buffer, flushing to the
// device when the buffer fills. Writes at least as large as the buffer are
// written through directly (glibc behaviour).
func (s *Stdio) Fwrite(t *sim.Thread, st *Stream, data []byte) (int, error) {
	if st.closed || !st.write {
		return 0, ErrBadFD
	}
	n := int64(len(data))
	if n >= StdioBufSize {
		s.fflush(t, st)
		st.fs.writeAt(t, st.inode, n, st.offset)
		st.offset += n
		return int(n), nil
	}
	if st.buffered == 0 {
		st.bufOff = st.offset
	}
	st.buffered += n
	st.offset += n
	if st.buffered >= StdioBufSize {
		s.fflush(t, st)
	}
	return int(n), nil
}

// Fread reads up to count bytes from the stream into buf, returning the
// count (0 at EOF, matching feof semantics closely enough for
// instrumentation). Pending output is flushed first. A nil buf is a
// count-only read with the same stream semantics and simulated cost; a
// non-nil buf shorter than count is ErrInvalid and touches no device.
func (s *Stdio) Fread(t *sim.Thread, st *Stream, buf []byte, count int64) (int, error) {
	if count < 0 || buf != nil && int64(len(buf)) < count {
		return 0, ErrInvalid
	}
	if st.closed || !st.read {
		return 0, ErrBadFD
	}
	s.fflush(t, st)
	ino := st.inode
	if st.offset >= ino.Size || count == 0 {
		return 0, nil
	}
	n := min(count, ino.Size-st.offset)
	// Fault check precedes the offset advance: a retried fread re-reads
	// the same span, exactly like a userland retry loop over fread(3).
	if err := s.fs.dataReadFault(st.node, false); err != nil {
		return 0, err
	}
	s.fs.readData(t, st.node, ino, st.offset, n)
	if buf != nil {
		ino.fillContent(buf[:n], st.offset)
	}
	st.offset += n
	return int(n), nil
}

// Ftell returns the current stream offset.
func (s *Stdio) Ftell(st *Stream) int64 { return st.offset }

// fflush writes any buffered data to the device. Only the stream layer
// calls it, on an open stream: fflush(3) is not on the interposable
// surface.
func (s *Stdio) fflush(t *sim.Thread, st *Stream) {
	if st.buffered == 0 {
		return
	}
	st.fs.writeAt(t, st.inode, st.buffered, st.bufOff)
	st.buffered = 0
	st.Flushes++
}

// Fclose flushes and closes the stream.
func (s *Stdio) Fclose(t *sim.Thread, st *Stream) error {
	if st.closed {
		return ErrBadFD
	}
	s.fflush(t, st)
	s.fs.syscall(t)
	st.closed = true
	return nil
}
