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
//
// Since no caller consumes the payload (samples are summarized by their
// byte count), the loop issues count-only preads by default, skipping
// content generation entirely while charging identical simulated time and
// producing identical Darshan records. Env.VerifyContent restores the
// materializing preads plus a checksum round-trip against the VFS content
// generator.
func ReadFile(t *sim.Thread, env *tf.Env, path string) (int64, error) {
	tm := env.Trace(t, "ReadFile")
	defer tm.End(t)
	fd, err := env.Libc.Open(t, path, vfs.O_RDONLY)
	if err != nil {
		return 0, fmt.Errorf("tfio: %w", err)
	}
	defer env.Libc.Close(t, fd)
	if env.VerifyContent {
		total, err := verifiedPreadLoop(t, env, path, fd, ReadChunk)
		if err != nil {
			return total, fmt.Errorf("tfio: %w", err)
		}
		return total, nil
	}
	var total int64
	for {
		var n int
		err := retryRead(t, env, func() (e error) {
			n, e = env.Libc.PreadDiscard(t, fd, ReadChunk, total)
			return e
		})
		if err != nil {
			return total, fmt.Errorf("tfio: %w", err)
		}
		if n == 0 {
			return total, nil
		}
		total += int64(n)
	}
}

// verifiedPreadLoop is the VerifyContent whole-file read: materializing
// preads with the same chunking as the fast path, feeding a running
// checksum that must match the VFS generator's over the same range.
func verifiedPreadLoop(t *sim.Thread, env *tf.Env, path string, fd int, chunk int) (int64, error) {
	buf := env.ScratchBuf(t, chunk)
	sum := vfs.ChecksumSeed()
	var total int64
	for {
		var n int
		err := retryRead(t, env, func() (e error) {
			n, e = env.Libc.Pread(t, fd, buf, total)
			return e
		})
		if err != nil {
			return total, err
		}
		if n == 0 {
			break
		}
		sum = vfs.ChecksumUpdate(sum, buf[:n])
		total += int64(n)
	}
	return total, verifyChecksum(env, path, sum, total)
}

// verifyChecksum compares a reader's running checksum over [0, total)
// against the VFS content generator's — the single verification tail
// shared by the POSIX and STDIO verify-content read loops.
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
// reads; its POSIX module does not (stream flushes bypass the PLT).
//
// Like ReadFile, the loop issues count-only freads by default — the
// zero-materialization fast path — and Env.VerifyContent restores
// materializing freads plus a checksum round-trip against the VFS
// content generator.
func ReadFileBuffered(t *sim.Thread, env *tf.Env, path string) (int64, error) {
	tm := env.Trace(t, "ReadFileBuffered")
	defer tm.End(t)
	st, err := env.Libc.Fopen(t, path, "r")
	if err != nil {
		return 0, fmt.Errorf("tfio: %w", err)
	}
	defer env.Libc.Fclose(t, st)
	if env.VerifyContent {
		total, err := verifiedFreadLoop(t, env, path, st, StdioReadChunk)
		if err != nil {
			return total, fmt.Errorf("tfio: %w", err)
		}
		return total, nil
	}
	var total int64
	for {
		var n int
		err := retryRead(t, env, func() (e error) {
			n, e = env.Libc.FreadDiscard(t, st, StdioReadChunk)
			return e
		})
		if err != nil {
			return total, fmt.Errorf("tfio: %w", err)
		}
		if n == 0 {
			return total, nil
		}
		total += int64(n)
	}
}

// verifiedFreadLoop is the VerifyContent whole-file stream read:
// materializing freads with the same chunking as the fast path, feeding a
// running checksum that must match the VFS generator's over the same range.
func verifiedFreadLoop(t *sim.Thread, env *tf.Env, path string, st *vfs.Stream, chunk int) (int64, error) {
	buf := env.ScratchBuf(t, chunk)
	sum := vfs.ChecksumSeed()
	var total int64
	for {
		var n int
		err := retryRead(t, env, func() (e error) {
			n, e = env.Libc.Fread(t, st, buf)
			return e
		})
		if err != nil {
			return total, err
		}
		if n == 0 {
			break
		}
		sum = vfs.ChecksumUpdate(sum, buf[:n])
		total += int64(n)
	}
	return total, verifyChecksum(env, path, sum, total)
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
