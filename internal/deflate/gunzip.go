package deflate

import (
	"compress/gzip"
	"errors"
	"io"
)

const (
	// ringBlocks and blockSize shape a Reader's ring: the worker
	// inflates into one block while the caller reads another, and a third
	// absorbs the jitter between the two.
	ringBlocks = 3
	blockSize  = 64 << 10
)

// A Reader is an io.ReadCloser that gunzips what it reads from its
// source with compress/gzip on a worker goroutine, so it reads the same
// bytes and fails with the same errors. Close must be called, also after a
// failed Read: it stops the Reader's worker.
type Reader struct {
	zr  *gzip.Reader
	err error // sticky, once a block carrying it is read out

	// The worker inflates into the blocks of a ring: it takes them from
	// free and hands them on full, and stops at stop.
	free, full chan *block
	stop, done chan struct{}
	cur        *block // the block being read
	off        int    // read up to here
}

// A block is one piece of a Reader's output.
type block struct {
	buf  []byte
	data []byte
	err  error // after data
}

// NewPipelinedReader returns a Reader for a caller that reads the whole
// stream. It reads the first member's header and returns compress/gzip's
// error when it is bad. A worker goroutine then inflates up to a ring of
// blocks ahead of Read, reading the source on its own, so the caller must
// not read r while the Reader is open.
func NewPipelinedReader(r io.Reader) (*Reader, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	z := &Reader{
		zr:   zr,
		free: make(chan *block, ringBlocks),
		full: make(chan *block, ringBlocks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for range ringBlocks {
		z.free <- &block{buf: make([]byte, blockSize)}
	}
	go z.work()
	return z, nil
}

// work fills free blocks until the stream ends, fails, or the Reader is
// closed.
func (z *Reader) work() {
	defer close(z.done)
	for {
		var b *block
		select {
		case b = <-z.free:
		case <-z.stop:
			return
		}
		n, err := z.fill(b.buf)
		b.data, b.err = b.buf[:n], err
		z.full <- b // never blocks: the ring has room for every block
		if err != nil {
			return
		}
	}
}

// fill reads into buf until it is full or the stream ends or fails.
func (z *Reader) fill(buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := z.zr.Read(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read reads inflated bytes into p. At the end of the stream it returns
// io.EOF; for a damaged stream, compress/gzip's error.
func (z *Reader) Read(p []byte) (int, error) {
	if z.err != nil || len(p) == 0 {
		return 0, z.err
	}
	for z.cur == nil || z.off == len(z.cur.data) {
		if z.cur != nil {
			if z.cur.err != nil {
				z.err = z.cur.err
				return 0, z.err
			}
			z.free <- z.cur
		}
		z.cur, z.off = <-z.full, 0
	}
	n := copy(p, z.cur.data[z.off:])
	z.off += n
	return n, nil
}

// Close stops the worker and waits for it to exit. Reads after it fail.
// It reports no decoding error: Read does.
func (z *Reader) Close() error {
	if z.stop != nil {
		close(z.stop)
		<-z.done
		z.stop = nil
	}
	z.err = errReaderClosed
	return nil
}

var errReaderClosed = errors.New("deflate: read after Close")
