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
	buf    []byte
	bufOff int64 // file offset of buf[0]
	closed bool

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
	if len(data) == 0 {
		return 0, nil
	}
	if len(data) >= StdioBufSize {
		if err := s.fflush(t, st); err != nil {
			return 0, err
		}
		n, err := st.fs.writeAt(t, st.inode, data, st.offset)
		if n > 0 {
			st.offset += int64(n)
		}
		return n, err
	}
	if len(st.buf) == 0 {
		st.bufOff = st.offset
	}
	st.buf = append(st.buf, data...)
	st.offset += int64(len(data))
	if len(st.buf) >= StdioBufSize {
		if err := s.fflush(t, st); err != nil {
			return 0, err
		}
	}
	return len(data), nil
}

// freadSpan is the common fread path: flush pending output, clamp count to
// EOF, charge the device read and advance the stream offset. The caller
// materializes content (or not).
func (s *Stdio) freadSpan(t *sim.Thread, st *Stream, count int64) (off int64, n int64, err error) {
	if st.closed || !st.read {
		return 0, 0, ErrBadFD
	}
	if err := s.fflush(t, st); err != nil {
		return 0, 0, err
	}
	ino := st.inode
	if st.offset >= ino.Size || count <= 0 {
		return st.offset, 0, nil
	}
	n = count
	if st.offset+n > ino.Size {
		n = ino.Size - st.offset
	}
	off = st.offset
	// Fault check precedes the offset advance: a retried fread re-reads
	// the same span, exactly like a userland retry loop over fread(3).
	if err := s.fs.dataReadFault(st.node, false); err != nil {
		return 0, 0, err
	}
	s.fs.readData(t, st.node, ino, off, n)
	st.offset += n
	return off, n, nil
}

// Fread reads up to len(buf) bytes from the stream, returning the count
// (0 at EOF, matching feof semantics closely enough for instrumentation).
func (s *Stdio) Fread(t *sim.Thread, st *Stream, buf []byte) (int, error) {
	off, n, err := s.freadSpan(t, st, int64(len(buf)))
	if err != nil {
		return 0, err
	}
	if n > 0 {
		st.inode.fillContent(buf[:n], off)
	}
	return int(n), nil
}

// FreadDiscard is the zero-materialization fread: identical stream
// semantics and simulated cost to Fread with a count-byte buffer, but the
// bytes are never generated. A negative count is ErrInvalid, matching
// PreadDiscard (a []byte length can never be negative, a count can).
func (s *Stdio) FreadDiscard(t *sim.Thread, st *Stream, count int64) (int, error) {
	if count < 0 {
		return 0, ErrInvalid
	}
	_, n, err := s.freadSpan(t, st, count)
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// Ftell returns the current stream offset.
func (s *Stdio) Ftell(st *Stream) int64 { return st.offset }

// fflush writes any buffered data to the device. Only the stream layer
// calls it: fflush(3) is not on the interposable surface.
func (s *Stdio) fflush(t *sim.Thread, st *Stream) error {
	if st.closed {
		return ErrBadFD
	}
	if len(st.buf) == 0 {
		return nil
	}
	_, err := st.fs.writeAt(t, st.inode, st.buf, st.bufOff)
	st.buf = st.buf[:0]
	st.Flushes++
	return err
}

// Fclose flushes and closes the stream.
func (s *Stdio) Fclose(t *sim.Thread, st *Stream) error {
	if st.closed {
		return ErrBadFD
	}
	if err := s.fflush(t, st); err != nil {
		return err
	}
	s.fs.syscall(t)
	st.closed = true
	return nil
}
