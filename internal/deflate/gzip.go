// Package deflate is a gzip writer whose output is byte for byte that of
// compress/gzip's NewWriter at the default compression level, with the
// match search spread over the host's cores.
//
// The stream is cut into chunks. Worker goroutines run the default
// level's lazy parse over each chunk ahead of time and record every match
// search they make (search.go). One compressor, compress/flate's own code
// cut down to that level (deflate.go), then compresses the chunks in
// order and takes each search result from the chunk's record when it is
// there, searching itself when it is not. That compressor alone decides
// tokens, blocks, window slides and Huffman codes, so the bytes do not
// depend on the worker count or on timing; with GOMAXPROCS 1 there are no
// workers and the same compressor runs alone.
//
// Writers draw their tables and buffers from a small free list, so a
// process that writes many streams allocates them once.
package deflate

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
)

const (
	// chunkSize is the input one worker searches at a time. It is a
	// multiple of windowSize (search.go relies on that).
	chunkSize = 128 << 10
	// maxWorkers caps the workers per Writer. A worker's search costs
	// 1.5 to 2.6 times the compressor's share of a chunk (the lookups,
	// tokens and Huffman coding) on the simulator's logs and traces, so
	// three workers outpace the compressor, and a fourth would only hold
	// another set of tables.
	maxWorkers = 3
)

// A Writer is an io.WriteCloser that gzips what is written to it. Close
// must be called, also after a failed Write: it releases the workers and
// buffers.
type Writer struct {
	dst         io.Writer
	st          *state
	workers     int
	chunk       int // chunkSize; tests shrink it
	wroteHeader bool
	closed      bool
	digest      uint32
	size        uint32
	err         error
	buf         [8]byte // the trailer

	fill  *job   // the chunk being filled; nil without workers
	queue []*job // chunks handed to the workers, oldest first
	wg    sync.WaitGroup
}

// NewWriter returns a Writer that writes a gzip stream to w.
func NewWriter(w io.Writer) *Writer {
	return newWriter(w, workerCount(), chunkSize)
}

// workerCount is one worker per core up to maxWorkers, and none on a
// single core, where the compressor searches faster alone.
func workerCount() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return min(n, maxWorkers)
	}
	return 0
}

func newWriter(w io.Writer, workers, chunk int) *Writer {
	z := &Writer{dst: w, st: getState(workers), workers: workers, chunk: chunk}
	z.st.d.reset(w)
	if workers > 0 {
		z.queue = z.st.queue[:0]
		for _, j := range z.st.jobs {
			j.busy = false
		}
		z.fill = z.st.jobs[0]
		z.fill.reset(0, chunk)
		z.wg.Add(workers)
		for _, s := range z.st.searchers[:workers] {
			s.dirty = true
			go z.work(s)
		}
	}
	return z
}

// work searches the chunks handed over on the state's channel until it
// receives nil.
func (z *Writer) work(s *searcher) {
	defer z.wg.Done()
	for j := range z.st.todo {
		if j == nil {
			return
		}
		s.search(j)
		j.done <- struct{}{}
	}
}

// Write compresses p. Its error is sticky.
func (z *Writer) Write(p []byte) (int, error) {
	if z.closed {
		return 0, errWriterClosed
	}
	if z.header(); z.err != nil {
		return 0, z.err
	}
	z.size += uint32(len(p))
	z.digest = crc32.Update(z.digest, crc32.IEEETable, p)
	if z.fill == nil {
		if z.err = z.st.d.write(p); z.err != nil {
			return 0, z.err
		}
		return len(p), nil
	}
	n := len(p)
	for len(p) > 0 {
		j := z.fill
		k := min(len(p), cap(j.data)-len(j.data))
		j.data = append(j.data, p[:k]...)
		p = p[k:]
		if len(j.data) == cap(j.data) {
			if z.dispatch(); z.err != nil {
				return 0, z.err
			}
		}
	}
	return n, nil
}

// header writes the gzip header once, before anything else.
func (z *Writer) header() {
	if !z.wroteHeader && z.err == nil {
		z.wroteHeader = true
		_, z.err = z.dst.Write(gzipHeader[:])
	}
}

// dispatch hands the full chunk to the workers and starts the next one,
// compressing the oldest chunk first when no buffer is free.
func (z *Writer) dispatch() {
	j := z.fill
	z.queue = append(z.queue, j)
	z.st.todo <- j
	var next *job
	for _, c := range z.st.jobs[:z.workers+1] {
		if !c.busy {
			next = c
			break
		}
	}
	if next == nil {
		next = z.queue[0]
		z.compressOldest()
	}
	next.reset(j.start+len(j.data)-j.hist, z.chunk)
	next.data = append(next.data, j.data[len(j.data)-next.hist:]...)
	z.fill = next
}

// compressOldest waits for the oldest queued chunk's search and
// compresses it.
func (z *Writer) compressOldest() {
	j := z.queue[0]
	z.queue = append(z.queue[:0], z.queue[1:]...)
	<-j.done
	j.busy = false
	if z.err != nil {
		return
	}
	z.err = z.st.d.writeChunk(j.data[j.hist:], j.memo, j.start)
}

// Close compresses what is left, writes the gzip trailer and releases
// the workers and buffers. After an error it only releases them and
// returns the error.
func (z *Writer) Close() error {
	if z.closed {
		return z.err
	}
	z.closed = true
	z.header()
	if z.fill != nil {
		// The workers search the tail while the compressor catches up;
		// a lone chunk is quicker to compress at once.
		tail := z.fill
		if len(z.queue) == 0 {
			if z.err == nil {
				z.err = z.st.d.write(tail.data[tail.hist:])
			}
		} else if len(tail.data) > tail.hist {
			z.queue = append(z.queue, tail)
			z.st.todo <- tail
		}
		for len(z.queue) > 0 {
			z.compressOldest()
		}
		for range z.workers {
			z.st.todo <- nil
		}
		z.wg.Wait()
		z.fill = nil
	}
	if z.err == nil {
		z.err = z.st.d.close()
	}
	if z.err == nil {
		binary.LittleEndian.PutUint32(z.buf[:4], z.digest)
		binary.LittleEndian.PutUint32(z.buf[4:], z.size)
		_, z.err = z.dst.Write(z.buf[:])
	}
	putState(z.st)
	z.st = nil
	return z.err
}

var errWriterClosed = errors.New("deflate: write after Close")

// gzipHeader is what compress/gzip writes at the default level: ID1,
// ID2, CM deflate; no flags, modification time or extra flags; OS
// unknown.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}

// A job is one chunk: the window before it, then the chunk itself.
type job struct {
	buf   []byte // backing store of data, windowSize+chunk bytes
	data  []byte
	hist  int // bytes of window before the chunk
	start int // stream position of the chunk
	memo  []match
	last  int // chunk position of the last record in memo
	done  chan struct{}
	busy  bool // being filled, searched or waiting to be compressed
}

// reset empties j for the chunk at stream position start.
func (j *job) reset(start, chunk int) {
	j.start, j.hist, j.busy = start, min(start, windowSize), true
	if len(j.buf) != windowSize+chunk {
		j.buf = make([]byte, windowSize+chunk)
		j.memo = make([]match, 0, chunk/bytesPerRecord)
	}
	j.data = j.buf[: 0 : j.hist+chunk]
}

// state is what a Writer borrows from the free list: the compressor, one
// searcher per worker and one more chunk buffer than workers.
type state struct {
	d         compressor
	searchers []*searcher
	jobs      []*job
	queue     []*job // backing store of Writer.queue
	// todo hands chunks to the workers, and nil to stop one. Sized for
	// the most ever unreceived: every chunk buffer, or one nil per
	// worker, so no send blocks.
	todo chan *job
}

// free holds the states of closed Writers. It is not a sync.Pool because
// a state is megabytes that a process writing a log or trace every few
// seconds would otherwise allocate again after each garbage collection.
var free struct {
	sync.Mutex
	list []*state
}

func getState(workers int) *state {
	free.Lock()
	var st *state
	if n := len(free.list); n > 0 {
		st = free.list[n-1]
		free.list = free.list[:n-1]
	}
	free.Unlock()
	if st == nil {
		st = &state{queue: make([]*job, 0, maxWorkers+1), todo: make(chan *job, maxWorkers+1)}
		st.d.init()
	}
	for len(st.searchers) < workers {
		st.searchers = append(st.searchers, new(searcher))
	}
	for len(st.jobs) < workers+1 {
		st.jobs = append(st.jobs, &job{done: make(chan struct{}, 1)})
	}
	return st
}

// putState returns st to the free list, which keeps at most one state
// per core.
func putState(st *state) {
	free.Lock()
	if len(free.list) < runtime.GOMAXPROCS(0) {
		free.list = append(free.list, st)
	}
	free.Unlock()
}
