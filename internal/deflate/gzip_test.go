package deflate

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
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
	z := newWriter(&buf, workers, chunk)
	for p := in; len(p) > 0; {
		k := min(len(p), rng.Intn(3*chunk/2+1))
		if _, err := z.Write(p[:k]); err != nil {
			t.Fatal(err)
		}
		p = p[k:]
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// logShaped returns about n bytes shaped like a merged Darshan log:
// counter records that are mostly zeros, then DXT segments with rising
// offsets and times.
func logShaped(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	out := make([]byte, 0, n+512)
	for id := uint64(1); len(out) < n/2; id++ {
		out = binary.LittleEndian.AppendUint64(out, id*0x9e3779b97f4a7c15)
		for c := 0; c < 64; c++ {
			var v int64
			if rng.Intn(4) == 0 {
				v = rng.Int63n(1 << uint(4+rng.Intn(24)))
			}
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	}
	var off int64
	at := 1.0
	for len(out) < n {
		length := int64(1+rng.Intn(4)) << 16
		out = binary.LittleEndian.AppendUint64(out, uint64(rng.Intn(32000)))
		out = binary.LittleEndian.AppendUint64(out, uint64(off))
		out = binary.LittleEndian.AppendUint64(out, uint64(length))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(at))
		at += rng.Float64() / 1000
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(at))
		out = binary.LittleEndian.AppendUint32(out, uint32(rng.Intn(8)))
		off += length
	}
	return out
}

func TestWriterMatchesGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 300<<10)
	rng.Read(random)
	inputs := map[string][]byte{
		"empty":      nil,
		"one byte":   {'x'},
		"short":      []byte("hello, hello, hello world"),
		"random":     random,
		"zeros":      make([]byte, 3*chunkSize+12345),
		"mixed":      mixed(rng, []byte("abcdefghijklmnop{}\":,0123456789"), 5*chunkSize/2),
		"log-shaped": logShaped(3*chunkSize + 999),
	}
	for name, in := range inputs {
		want := stdGzip(t, in)
		for _, workers := range []int{0, 1, 2, 3} {
			for _, chunk := range []int{windowSize, chunkSize} {
				if got := compress(t, in, workers, chunk, rng); !bytes.Equal(got, want) {
					t.Errorf("%s, %d workers, %d-byte chunks: %d bytes differ from compress/gzip's %d", name, workers, chunk, len(got), len(want))
				}
			}
		}
	}
}

// TestSlideEdgeMatchesGzip pins the slide-edge exclusion. The input is
// one chunk plus a window, so a worker searches the first chunk. On
// random bytes the compressor's parse moves one byte at a time, so its
// first window slide comes at position 65275 and drops positions below
// 32768.
// Position p = 65400 is searched after that slide. Its four-byte prefix
// also starts a 5-byte match at y, inside the window, and a 258-byte
// match at x = 32700, which the slide dropped. The compressor finds only
// the 5-byte match; a searcher that recorded p would hand it the 258-byte
// one.
func TestSlideEdgeMatchesGzip(t *testing.T) {
	const x, y, p = 32700, 50000, 65400
	rng := rand.New(rand.NewSource(2))
	in := make([]byte, chunkSize+windowSize)
	rng.Read(in)
	copy(in[p:p+maxMatchLength], in[x:x+maxMatchLength])
	copy(in[y:y+5], in[x:x+5])
	want := stdGzip(t, in)
	for _, workers := range []int{1, 2} {
		if got := compress(t, in, workers, chunkSize, rng); !bytes.Equal(got, want) {
			t.Errorf("%d workers: %d bytes differ from compress/gzip's %d", workers, len(got), len(want))
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
// workers NewWriter would start and with none, as under GOMAXPROCS=1.
func BenchmarkGzipWriter(b *testing.B) {
	in := logShaped(16 << 20)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"workers", workerCount()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
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
