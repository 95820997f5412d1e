// Package tfio provides the file operations of the TensorFlow POSIX file
// system layer: whole-file reads as performed by tf.io.read_file (a
// chunked pread loop that terminates on a zero-length read — the behaviour
// the paper uncovered behind its doubled read counts), buffered writable
// files that append through STDIO fwrite, and the checkpoint writer whose
// fwrite pattern the paper's Fig. 6 captures.
package tfio

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/vfs"
)

// ReadChunk is the buffer size of the ReadFile pread loop. With the
// paper's datasets this yields one data read plus one zero-length read for
// ImageNet's ~88KB files, and ~1MiB segments for the malware corpus's
// multi-MB files.
const ReadChunk = 1 << 20

// ReadFile reads the whole file like TF's ReadFileOp: open, pread in
// chunks until a zero-length read signals EOF, close. It returns the byte
// count read.
func ReadFile(t *sim.Thread, env *tf.Env, path string) (int64, error) {
	tm := env.Trace(t, "ReadFile")
	defer tm.End(t)
	return preadFile(t, env, path, ReadChunk)
}

// preadFile is the open, pread-until-0, close loop shared by ReadFile and
// ScanShard.
func preadFile(t *sim.Thread, env *tf.Env, path string, chunk int64) (int64, error) {
	fd, err := env.Libc.Open(t, path, vfs.O_RDONLY)
	if err != nil {
		return 0, fmt.Errorf("tfio: %w", err)
	}
	defer env.Libc.Close(t, fd)
	return readAll(t, env, path, chunk, func(buf []byte, off int64) (int, error) {
		return env.Libc.Pread(t, fd, buf, chunk, off)
	})
}

// readAll issues read until it returns 0 and returns the bytes read, each
// attempt guarded by the retry policy; off is the running total.
//
// No caller consumes the payload (samples are summarized by their byte
// count), so the reads are count-only by default: a nil buffer skips
// content generation entirely while charging identical simulated time and
// producing identical Darshan records. Env.VerifyContent hands the same
// calls a scratch buffer instead and checks the bytes' running checksum
// against the VFS content generator at EOF.
func readAll(t *sim.Thread, env *tf.Env, path string, chunk int64, read func(buf []byte, off int64) (int, error)) (int64, error) {
	var buf []byte
	sum := vfs.ChecksumSeed()
	if env.VerifyContent {
		buf = env.ScratchBuf(t, int(chunk))
	}
	var total int64
	for {
		var n int
		err := retryRead(t, env, func() (e error) {
			n, e = read(buf, total)
			return e
		})
		if err != nil {
			return total, fmt.Errorf("tfio: %w", err)
		}
		if n == 0 {
			break
		}
		if buf != nil {
			sum = vfs.ChecksumUpdate(sum, buf[:n])
		}
		total += int64(n)
	}
	if buf != nil {
		if err := verifyChecksum(env, path, sum, total); err != nil {
			return total, fmt.Errorf("tfio: %w", err)
		}
	}
	return total, nil
}

// verifyChecksum compares a reader's running checksum over [0, total)
// against the VFS content generator's.
func verifyChecksum(env *tf.Env, path string, sum uint64, total int64) error {
	ino, ok := env.FS.Lookup(path)
	if !ok {
		// The open succeeded, so the file existed; losing it here (e.g. a
		// concurrent unlink) must not silently skip the verification.
		return fmt.Errorf("verify content %s: inode vanished before checksum", path)
	}
	if want := ino.ContentChecksum(0, total); want != sum {
		return fmt.Errorf("verify content %s: checksum %#x, want %#x", path, sum, want)
	}
	return nil
}

// StdioReadChunk is the fread granularity of the buffered whole-file
// reader, matching TF's buffered input stream default.
const StdioReadChunk = 256 << 10

// ReadFileBuffered reads the whole file through the STDIO stream layer
// (fopen + an fread loop until a short/zero read signals EOF + fclose),
// the path TF's buffered readers take. Darshan's STDIO module sees these
// reads; its POSIX module does not (stream flushes bypass the PLT). Like
// ReadFile, the freads are count-only unless Env.VerifyContent is set.
func ReadFileBuffered(t *sim.Thread, env *tf.Env, path string) (int64, error) {
	tm := env.Trace(t, "ReadFileBuffered")
	defer tm.End(t)
	st, err := env.Libc.Fopen(t, path, "r")
	if err != nil {
		return 0, fmt.Errorf("tfio: %w", err)
	}
	defer env.Libc.Fclose(t, st)
	return readAll(t, env, path, StdioReadChunk, func(buf []byte, _ int64) (int, error) {
		return env.Libc.Fread(t, st, buf, StdioReadChunk)
	})
}

// WritableFile is TF's buffered writable file: appends go through STDIO
// fwrite, so Darshan's STDIO module sees them (and the POSIX module does
// not).
type WritableFile struct {
	env    *tf.Env
	stream *vfs.Stream
	path   string
	// Appends counts fwrite calls issued (Fig. 6's metric).
	Appends int64
}

// NewWritableFile creates/truncates path for writing.
func NewWritableFile(t *sim.Thread, env *tf.Env, path string) (*WritableFile, error) {
	st, err := env.Libc.Fopen(t, path, "w")
	if err != nil {
		return nil, fmt.Errorf("tfio: %w", err)
	}
	return &WritableFile{env: env, stream: st, path: path}, nil
}

// Append writes data at the end of the file via fwrite.
func (w *WritableFile) Append(t *sim.Thread, data []byte) error {
	if _, err := w.env.Libc.Fwrite(t, w.stream, data); err != nil {
		return fmt.Errorf("tfio: append %s: %w", w.path, err)
	}
	w.Appends++
	return nil
}

// Close flushes and closes the file.
func (w *WritableFile) Close(t *sim.Thread) error {
	return w.env.Libc.Fclose(t, w.stream)
}
