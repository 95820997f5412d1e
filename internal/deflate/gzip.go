// Package deflate is a gzip writer whose output is byte for byte that of
// compress/gzip's NewWriter at the default compression level, with the
// lazy parse spread over the host's cores.
//
// The stream is cut into chunks. Worker goroutines run the default
// level's lazy parse over each chunk (parse.go) and return its tokens.
// The caller's goroutine splices each chunk's tokens onto the previous
// chunk's when the worker's parse reached the handoff in the true state,
// has the chunk parsed again from that state when it did not, and codes
// the tokens into blocks with compress/flate's own Huffman code
// (deflate.go). Every token is the one compress/flate emits, so the bytes
// do not depend on the worker count or on timing. There is one worker per
// core, up to three; on one core the worker and the caller's goroutine
// take turns.
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
	// chunkSize is the input one worker parses at a time. It is a
	// multiple of windowSize (parse.go relies on that).
	chunkSize = 128 << 10
	// maxWorkers caps the workers per Writer. A worker's parse costs
	// several times the compressor's share of a chunk (the token copy and
	// Huffman coding) on the simulator's logs and traces, so three
	// workers outpace the compressor, and a fourth would only hold
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
	warmup      int // warmup; tests shrink it
	wroteHeader bool
	closed      bool
	digest      uint32
	size        uint32
	err         error
	buf         [8]byte // the trailer
	reparsed    int     // chunks parsed again from the true state

	fill  *job   // the chunk being filled
	queue []*job // chunks handed to the workers, oldest first
	wg    sync.WaitGroup
}

// NewWriter returns a Writer that writes a gzip stream to w, with one
// worker per core up to maxWorkers.
func NewWriter(w io.Writer) *Writer {
	return newWriter(w, workerCount(), chunkSize)
}

func workerCount() int { return min(runtime.GOMAXPROCS(0), maxWorkers) }

func newWriter(w io.Writer, workers, chunk int) *Writer {
	z := &Writer{dst: w, st: getState(workers), workers: workers, chunk: chunk, warmup: warmup}
	z.st.d.reset(w)
	z.queue = z.st.queue[:0]
	for _, j := range z.st.jobs {
		j.busy = false
	}
	z.fill = z.st.jobs[0]
	z.fill.reset(0, chunk)
	for _, p := range z.st.parsers {
		p.dirty = true
	}
	z.wg.Add(workers)
	for _, p := range z.st.parsers[:workers] {
		go z.work(p)
	}
	return z
}

// work parses the chunks handed over on the state's channel until it
// receives nil.
func (z *Writer) work(p *parser) {
	defer z.wg.Done()
	for j := range z.st.todo {
		if j == nil {
			return
		}
		p.parse(j)
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
	n := len(p)
	for len(p) > 0 {
		// A full chunk is handed on only once more input shows it is not
		// the last: the last one is parsed to the stream's end.
		if j := z.fill; len(j.data) == cap(j.data) {
			if z.next(); z.err != nil {
				return 0, z.err
			}
		}
		j := z.fill
		k := min(len(p), cap(j.data)-len(j.data))
		j.data = append(j.data, p[:k]...)
		p = p[k:]
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

// next hands the full chunk to the workers and starts the next one with
// the window before it, compressing the oldest chunk first when no buffer
// is free.
func (z *Writer) next() {
	j := z.fill
	z.dispatch(j)
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
	hist := j.data[len(j.data)-windowSize:]
	next.reset(j.start+len(j.data)-j.hist, z.chunk)
	next.data = append(next.data, hist...)
	z.fill = next
}

// dispatch hands j to the workers, to parse from cold.
func (z *Writer) dispatch(j *job) {
	j.from = parseState{
		index:  max(j.start-(minMatchLength+maxMatchLength)+1-z.warmup, j.start-j.hist),
		length: minMatchLength - 1,
	}
	z.queue = append(z.queue, j)
	z.st.todo <- j
}

// compressOldest waits for the oldest queued chunk's parse and
// compresses it, having a worker parse it again from the true state when
// the cold parse reached the handoff in another.
func (z *Writer) compressOldest() {
	j := z.queue[0]
	z.queue = append(z.queue[:0], z.queue[1:]...)
	<-j.done
	j.busy = false
	if z.err != nil {
		return
	}
	if j.handoff != z.st.d.state {
		z.reparsed++
		j.from = z.st.d.state
		z.st.todo <- j
		<-j.done
	}
	z.err = z.st.d.writeChunk(j)
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
	if tail := z.fill; z.err == nil && len(tail.data) > tail.hist {
		tail.final = true
		z.dispatch(tail)
	}
	for len(z.queue) > 0 {
		z.compressOldest()
	}
	for range z.workers {
		z.st.todo <- nil
	}
	z.wg.Wait()
	z.fill = nil
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

// A job is one chunk: the window before it, then the chunk itself, and
// the parse of it.
type job struct {
	buf   []byte // backing store of data, windowSize+chunk bytes
	data  []byte
	hist  int  // bytes of window before the chunk
	start int  // stream position of the chunk
	final bool // the stream ends with the chunk

	from    parseState // where the parse starts
	handoff parseState // the parse's state at the chunk's handoff step
	end     parseState // the parse's state where it stopped
	tokens  []token    // the tokens from the handoff step on
	done    chan struct{}
	busy    bool // being filled, parsed or waiting to be compressed
}

// reset empties j for the chunk at stream position start.
func (j *job) reset(start, chunk int) {
	j.start, j.hist, j.final, j.busy = start, min(start, windowSize), false, true
	if len(j.buf) != windowSize+chunk {
		j.buf = make([]byte, windowSize+chunk)
		// The chunk plus the bytes between its handoff step and its start.
		j.tokens = make([]token, 0, chunk+minMatchLength+maxMatchLength)
	}
	j.data = j.buf[: 0 : j.hist+chunk]
}

// state is what a Writer borrows from the free list: the compressor, one
// parser per worker and one more chunk buffer than workers.
type state struct {
	d       compressor
	parsers []*parser
	jobs    []*job
	queue   []*job // backing store of Writer.queue
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
	for len(st.parsers) < workers {
		st.parsers = append(st.parsers, new(parser))
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
