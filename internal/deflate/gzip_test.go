package deflate

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// stdGzip is the reference: compress/gzip at the default level.
func stdGzip(t testing.TB, in []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compress writes in through a Writer with the given workers and chunk
// size, cutting it into Write calls of random lengths (zero included).
func compress(t testing.TB, in []byte, workers, chunk int, rng *rand.Rand) []byte {
	t.Helper()
	var buf bytes.Buffer
	writeAll(t, newWriter(&buf, workers, chunk), in, rng)
	return buf.Bytes()
}

// writeAll writes in through z in Write calls of random lengths up to
// one and a half chunks, then closes z.
func writeAll(t testing.TB, z *Writer, in []byte, rng *rand.Rand) {
	t.Helper()
	for p := in; len(p) > 0; {
		k := min(len(p), rng.Intn(3*z.chunk/2+1))
		if _, err := z.Write(p[:k]); err != nil {
			t.Fatal(err)
		}
		p = p[k:]
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
}

// mixed returns n bytes that mix literal runs drawn from alphabet with
// copies of earlier bytes from up to 40 KiB back, so matches cross 32 KiB
// window slides and chunk boundaries.
func mixed(rng *rand.Rand, alphabet []byte, n int) []byte {
	if len(alphabet) == 0 {
		alphabet = []byte{0}
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		if len(out) > 64 && rng.Intn(3) > 0 {
			back := 1 + rng.Intn(min(len(out), 40<<10))
			for k := 4 + rng.Intn(300); k > 0 && len(out) < n; k-- {
				out = append(out, out[len(out)-back])
			}
			continue
		}
		for k := rng.Intn(40); k >= 0 && len(out) < n; k-- {
			out = append(out, alphabet[rng.Intn(len(alphabet))])
		}
	}
	return out
}

// logShaped returns about n bytes laid out like the merged Darshan log
// of an ImageNet-style read job: a name table, one POSIX record per file
// (id, rank, 43 counters of which a dozen are set, 13 timing
// fcounters), then a timeline of four 49-byte read segments per file in
// start order. Like the simulator's logs, it is mostly near-repeats a
// few hundred bytes apart, which is what the parse spends its time on.
func logShaped(n int) []byte {
	const perFile = 46 + 16 + 43*8 + 13*8 + 4*49
	files := max(1, n/perFile)
	rng := rand.New(rand.NewSource(1))
	u64 := binary.LittleEndian.AppendUint64
	f64 := func(b []byte, v float64) []byte { return u64(b, math.Float64bits(v)) }
	out := make([]byte, 0, files*perFile+64)
	out = append(out, 1)
	out = f64(out, 33.05)
	out = u64(out, 8)
	out = binary.LittleEndian.AppendUint32(out, uint32(files))
	ids := make([]uint64, files)
	half := make([]int64, files)
	for i := range ids {
		ids[i], half[i] = rng.Uint64(), 15_000+rng.Int63n(100_000)
		name := fmt.Sprintf("/pfs/lustre/imagenet/imagenet-%06d", i)
		out = u64(out, ids[i])
		out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
		out = append(out, name...)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(files))
	at := 0.0
	for i, id := range ids {
		var c [43]int64
		c[0], c[1], c[6], c[8], c[10], c[12], c[15] = 2, 4, 2*half[i], half[i]-1, 2, 2, 2
		c[18+rng.Intn(2)], c[36], c[39], c[40] = 2, half[i], 2, 2
		at += rng.Float64() / 500
		read, meta := rng.Float64()/100, rng.Float64()/1000
		f := [13]float64{at, 3.4e-6, 0, meta, at + read, at + read + meta, 0, at + read + 2*meta, read, 0, rng.Float64() / 5, meta, 0}
		out = u64(out, id)
		out = u64(out, math.MaxUint64) // rank -1: shared by every rank
		for _, v := range c {
			out = u64(out, uint64(v))
		}
		for _, v := range f {
			out = f64(out, v)
		}
	}
	out = u64(out, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(4*files))
	at = 0
	for k := range 4 * files {
		i := rng.Intn(files)
		at += rng.Float64() / 2000
		out = u64(out, ids[i])
		out = binary.LittleEndian.AppendUint32(out, uint32(k%8))
		out = append(out, 0)
		out = u64(out, uint64(int64(k/8%2)*half[i]))
		out = u64(out, uint64(half[i]))
		out = f64(out, at)
		out = f64(out, at+rng.Float64()/100)
		out = binary.LittleEndian.AppendUint32(out, uint32(48+5*(k%8)))
	}
	return out
}

func TestWriterMatchesGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 300<<10)
	rng.Read(random)
	alphabet := []byte("abcdefghijklmnop{}\":,0123456789")
	inputs := map[string][]byte{
		"empty":      nil,
		"one byte":   {'x'},
		"short":      []byte("hello, hello, hello world"),
		"random":     random,
		"zeros":      make([]byte, 3*chunkSize+12345),
		"mixed":      mixed(rng, alphabet, 5*chunkSize/2),
		"log-shaped": logShaped(3*chunkSize + 999),
		// Streams that end in the slide edge before a 32 KiB boundary,
		// and exactly at one: at the end of a window, and of a chunk.
		"ends in slide edge":    mixed(rng, alphabet, 5*windowSize-100),
		"ends at window bound":  mixed(rng, alphabet, 3*windowSize),
		"ends at chunk bound":   mixed(rng, alphabet, 2*chunkSize),
		"random ends at window": random[:5*windowSize],
	}
	for name, in := range inputs {
		want := stdGzip(t, in)
		for _, workers := range []int{1, 2, 3} {
			for _, chunk := range []int{windowSize, chunkSize} {
				if got := compress(t, in, workers, chunk, rng); !bytes.Equal(got, want) {
					t.Errorf("%s, %d workers, %d-byte chunks: %d bytes differ from compress/gzip's %d", name, workers, chunk, len(got), len(want))
				}
			}
		}
	}
}

// TestSlideEdgeMatchesGzip pins the parse's slide-edge floor. On random
// bytes the parse steps one byte at a time. Position p = 65400 is one of
// the last minMatchLength+maxMatchLength-1 positions before the 32 KiB
// boundary B = 65536. Its four-byte prefix also starts a 5-byte match at
// y and a longer one at x = 32700, which compress/flate's window slide at
// B drops when the stream goes on past B. So the step at p must find only
// the 5-byte match when the stream continues, and the long one when the
// stream ends inside the slide edge or exactly at B, where no slide comes.
// With 128 KiB chunks p is inside a worker's chunk; with 32 KiB ones it is
// one of the positions between a chunk's handoff step and its start.
func TestSlideEdgeMatchesGzip(t *testing.T) {
	const x, y, p, b = 32700, 50000, 65400, 2 * windowSize
	for _, n := range []int{chunkSize + windowSize, b - 50, b} {
		rng := rand.New(rand.NewSource(2))
		in := make([]byte, n)
		rng.Read(in)
		k := min(maxMatchLength, n-p)
		copy(in[p:p+k], in[x:x+k])
		copy(in[y:y+5], in[x:x+5])
		want := stdGzip(t, in)
		for _, workers := range []int{1, 2} {
			for _, chunk := range []int{windowSize, chunkSize} {
				if got := compress(t, in, workers, chunk, rng); !bytes.Equal(got, want) {
					t.Errorf("%d-byte stream, %d workers, %d-byte chunks: %d bytes differ from compress/gzip's %d", n, workers, chunk, len(got), len(want))
				}
			}
		}
	}
}

// TestHandoffMismatchMatchesGzip has every cold parse start at its
// chunk's handoff step, with nothing pending, on input where the true
// parse is inside a long match there: a 300-byte run of one byte
// straddles each chunk's handoff step. The cold parse then reaches the
// handoff in another state than the previous chunk's parse ends in, so
// the compressor must parse every chunk after the first again from the
// true state.
func TestHandoffMismatchMatchesGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := make([]byte, 4*windowSize+1000)
	rng.Read(in)
	for s := windowSize; s < len(in); s += windowSize {
		copy(in[s-400:s-100], bytes.Repeat([]byte{'z'}, 300))
	}
	want := stdGzip(t, in)
	for _, workers := range []int{1, 2} {
		var buf bytes.Buffer
		z := newWriter(&buf, workers, windowSize)
		z.warmup = 0
		writeAll(t, z, in, rng)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%d workers: %d bytes differ from compress/gzip's %d", workers, buf.Len(), len(want))
		}
		if z.reparsed != 4 {
			t.Errorf("%d workers: %d of the 4 chunks after the first parsed again, want all", workers, z.reparsed)
		}
	}
}

// TestNewWriterMatchesGzip covers the exported constructor at whatever
// worker count the host gives it, and a Write after Close.
func TestNewWriterMatchesGzip(t *testing.T) {
	in := logShaped(4 * chunkSize)
	var buf bytes.Buffer
	z := NewWriter(&buf)
	if _, err := z.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), stdGzip(t, in)) {
		t.Fatal("NewWriter's output differs from compress/gzip's")
	}
	if _, err := z.Write(in); !errors.Is(err, errWriterClosed) {
		t.Fatalf("Write after Close returned %v", err)
	}
}

// TestConcurrentWriters runs writers on several goroutines at once, so
// they take and return states on the free list concurrently.
func TestConcurrentWriters(t *testing.T) {
	in := logShaped(3 * chunkSize)
	want := stdGzip(t, in)
	errs := make(chan error, 4)
	for g := range cap(errs) {
		go func() {
			var buf bytes.Buffer
			z := newWriter(&buf, 1+g%2, chunkSize)
			_, err := z.Write(in)
			if cerr := z.Close(); err == nil {
				err = cerr
			}
			if err == nil && !bytes.Equal(buf.Bytes(), want) {
				err = errors.New("output differs from compress/gzip's")
			}
			errs <- err
		}()
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

var errFull = errors.New("device full")

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// waitForGoroutines fails t unless the goroutine count falls back to
// baseline within a second: a worker that has signalled its last chunk
// may take a moment to exit.
func waitForGoroutines(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkersRunOnOneCore: under GOMAXPROCS=1 a Writer still starts its
// worker, and takes turns with it; the bytes are compress/gzip's, a
// Reader's worker reads them back, and both workers stop at Close.
func TestWorkersRunOnOneCore(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	baseline := runtime.NumGoroutine()
	in := logShaped(1 << 20)
	var buf bytes.Buffer
	z := NewWriter(&buf)
	if z.workers != 1 {
		t.Fatalf("%d workers on one core, want 1", z.workers)
	}
	if _, err := z.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), stdGzip(t, in)) {
		t.Fatal("output on one core differs from compress/gzip's")
	}
	r, err := NewPipelinedReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || !bytes.Equal(got, in) {
		t.Fatalf("read back %d of %d bytes, error %v", len(got), len(in), err)
	}
	waitForGoroutines(t, baseline)
}

// TestWriteErrorReleasesWorkers: a destination that fails part-way gives
// its error back from Write or Close, and Close stops the workers.
func TestWriteErrorReleasesWorkers(t *testing.T) {
	in := logShaped(6 * chunkSize)
	for _, n := range []int{0, 5, 64 << 10} {
		baseline := runtime.NumGoroutine()
		z := newWriter(&failAfter{n: n}, 2, chunkSize)
		_, werr := z.Write(in)
		cerr := z.Close()
		if !errors.Is(werr, errFull) && !errors.Is(cerr, errFull) {
			t.Errorf("fail after %d bytes: Write returned %v, Close %v", n, werr, cerr)
		}
		waitForGoroutines(t, baseline)
	}
}

func FuzzDeflateMatchesGzip(f *testing.F) {
	f.Add([]byte("abc"), uint32(0), int64(0), uint8(0))
	f.Add([]byte("{\"ph\":\"X\",\"ts\":"), uint32(200_000), int64(1), uint8(5))
	f.Add([]byte{0, 0, 0, 1, 0xff}, uint32(300_000), int64(7), uint8(8))
	f.Fuzz(func(t *testing.T, alphabet []byte, size uint32, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := mixed(rng, alphabet, int(size%(320<<10)))
		chunk := windowSize << (shape % 3)
		workers := 1 + int(shape/3%3)
		if got, want := compress(t, in, workers, chunk, rng), stdGzip(t, in); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes, %d workers, %d-byte chunks: output differs from compress/gzip's", len(in), workers, chunk)
		}
	})
}

// BenchmarkGzipWriter compresses a 16 MiB log-shaped stream with the
// workers NewWriter would start and with the one it starts under
// GOMAXPROCS=1.
func BenchmarkGzipWriter(b *testing.B) {
	in := logShaped(16 << 20)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"one-worker", 1}, {"workers", workerCount()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			defer cpuPerOp(b)()
			for b.Loop() {
				z := newWriter(io.Discard, bc.workers, chunkSize)
				z.Write(in)
				if err := z.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cpuPerOp starts counting the process's CPU time, user plus system over
// every thread; the func it returns reports it per iteration as
// cpu-ms/op, so work done on other goroutines shows next to ns/op.
func cpuPerOp(b *testing.B) func() {
	start := processCPU(b)
	return func() {
		b.ReportMetric(float64(processCPU(b)-start)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
	}
}

func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
