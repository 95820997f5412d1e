package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// member returns one gzip member holding body, a raw DEFLATE stream of
// in, with a header that sets the flags in flags (FEXTRA, FNAME,
// FCOMMENT and FHCRC take their fields from rng) and a correct trailer.
func member(rng *rand.Rand, in, body []byte, flags byte) []byte {
	out := append([]byte(nil), gzipHeader[:]...)
	out[3] = flags
	if flags&flagExtra != 0 {
		extra := make([]byte, rng.Intn(40))
		rng.Read(extra)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(extra)))
		out = append(out, extra...)
	}
	for _, flag := range []byte{flagName, flagComment} {
		if flags&flag != 0 {
			for k := rng.Intn(20); k > 0; k-- {
				out = append(out, byte(1+rng.Intn(255)))
			}
			out = append(out, 0)
		}
	}
	if flags&flagHdrCrc != 0 {
		out = binary.LittleEndian.AppendUint16(out, uint16(crc32.ChecksumIEEE(out)))
	}
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(in))
	return binary.LittleEndian.AppendUint32(out, uint32(len(in)))
}

// rawDeflate compresses in with compress/flate at level (NoCompression
// gives stored blocks, HuffmanOnly dynamic blocks without matches).
func rawDeflate(t testing.TB, in []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(in)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// errClass names which of compress/gzip's errors err is.
func errClass(err error) string {
	var corrupt flate.CorruptInputError
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, gzip.ErrHeader):
		return "header"
	case errors.Is(err, gzip.ErrChecksum):
		return "checksum"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.As(err, &corrupt), errors.Is(err, errCorrupt):
		return "corrupt"
	}
	return err.Error()
}

// openGzip opens z with compress/gzip, or with a Reader.
func openGzip(z []byte, reader string) (io.ReadCloser, error) {
	if reader == "compress/gzip" {
		return gzip.NewReader(bytes.NewReader(z))
	}
	return NewPipelinedReader(bytes.NewReader(z))
}

// gunzipAll reads all of z through openGzip's reader and returns the
// bytes and the error.
func gunzipAll(z []byte, reader string) ([]byte, error) {
	r, err := openGzip(z, reader)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// checkLikeGzip fails t unless a Reader reads z as compress/gzip does:
// the same bytes and the same kind of error.
func checkLikeGzip(t *testing.T, name string, z []byte) {
	t.Helper()
	want, wantErr := gunzipAll(z, "compress/gzip")
	got, err := gunzipAll(z, "pipelined")
	if errClass(err) != errClass(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes and error %v, compress/gzip %d bytes and %v", name, len(got), err, len(want), wantErr)
	}
}

func TestReaderMatchesGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 100<<10)
	rng.Read(random)
	inputs := map[string][]byte{
		"empty":      nil,
		"short":      []byte("hello, hello, hello world"),
		"random":     random,
		"zeros":      make([]byte, 300<<10),
		"mixed":      mixed(rng, []byte("abcdefghijklmnop{}\":,0123456789"), 400<<10),
		"log-shaped": logShaped(3 * chunkSize),
	}
	for name, in := range inputs {
		checkLikeGzip(t, name+", default level", stdGzip(t, in))
		for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, flate.BestSpeed} {
			checkLikeGzip(t, name, member(rng, in, rawDeflate(t, in, level), 0))
		}
	}
	in := inputs["mixed"][:5000]
	body := rawDeflate(t, in, flate.DefaultCompression)
	for flags := range byte(32) {
		checkLikeGzip(t, "header flags", member(rng, in, body, flags))
	}
	two := append(stdGzip(t, in), member(rng, in, body, flagName)...)
	checkLikeGzip(t, "two members", two)
	checkLikeGzip(t, "trailing garbage", append(two, "garbage"...))
	checkLikeGzip(t, "a trailing zero", append(two, 0))
	for cut := range len(two) {
		checkLikeGzip(t, "truncated", two[:cut])
	}
	for i := range 2000 {
		z := bytes.Clone(two)
		z[rng.Intn(len(z))] ^= 1 << (i % 8)
		checkLikeGzip(t, "flipped bit", z)
	}
}

// TestPipelinedReaderStops: Close stops the worker whether the stream
// was read to its end, in part, or not at all.
func TestPipelinedReaderStops(t *testing.T) {
	z := stdGzip(t, logShaped(2<<20))
	for _, n := range []int{0, 1, 100 << 10, 4 << 20} {
		baseline := runtime.NumGoroutine()
		r, err := NewPipelinedReader(bytes.NewReader(z))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		r.Close()
		if _, err := r.Read(make([]byte, 1)); !errors.Is(err, errReaderClosed) {
			t.Fatalf("Read after Close returned %v", err)
		}
		waitForGoroutines(t, baseline)
	}
}

func FuzzInflateMatchesGzip(f *testing.F) {
	f.Add([]byte("abc"), uint32(1000), int64(0), uint8(0), uint32(0), uint16(0), []byte(nil))
	f.Add([]byte("{\"ph\":\"X\",\"ts\":"), uint32(200_000), int64(1), uint8(1), uint32(12345), uint16(0), []byte(nil))
	f.Add([]byte{0, 0, 0, 1, 0xff}, uint32(70_000), int64(7), uint8(2), uint32(0), uint16(9), []byte(nil))
	f.Add([]byte("xyz"), uint32(10), int64(3), uint8(3+4*31), uint32(0), uint16(0), []byte(nil))
	f.Add([]byte("raw"), uint32(0), int64(4), uint8(4), uint32(0), uint16(0), []byte{0x03, 0x00})
	f.Add([]byte("raw"), uint32(0), int64(5), uint8(4), uint32(0), uint16(0), []byte{0x05, 0xc0, 0x81, 0, 0, 0, 0x80, 0x10, 0xff})
	f.Fuzz(func(t *testing.T, alphabet []byte, size uint32, seed int64, shape uint8, cut uint32, flip uint16, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		in := mixed(rng, alphabet, int(size%(200<<10)))
		// shape%5 picks how the body is made, shape/5%2 adds a second
		// member, shape/10 the first member's header flags.
		var z []byte
		switch shape % 5 {
		case 0:
			z = compress(t, in, 1+int(seed&1), windowSize, rng)
		case 1:
			z = member(rng, in, rawDeflate(t, in, flate.NoCompression), shape/10)
		case 2:
			z = member(rng, in, rawDeflate(t, in, flate.HuffmanOnly), shape/10)
		case 3:
			z = member(rng, in, rawDeflate(t, in, flate.BestSpeed), shape/10)
		default:
			z = member(rng, in, raw, shape/10)
		}
		if shape/5%2 == 1 {
			z = append(z, member(rng, in[:len(in)/2], rawDeflate(t, in[:len(in)/2], flate.DefaultCompression), 0)...)
		}
		if cut > 0 {
			z = z[:int(cut)%(len(z)+1)]
		}
		if flip > 0 && len(z) > 0 {
			z[int(flip>>3)%len(z)] ^= 1 << (flip & 7)
		}
		checkLikeGzip(t, "fuzzed", z)
	})
}

// BenchmarkGzipReader reads a 16 MiB log-shaped stream through
// compress/gzip and through a Reader.
func BenchmarkGzipReader(b *testing.B) {
	in := logShaped(16 << 20)
	z := stdGzip(b, in)
	for _, reader := range []string{"compress/gzip", "pipelined"} {
		b.Run(reader, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			defer cpuPerOp(b)()
			for b.Loop() {
				r, err := openGzip(z, reader)
				if err != nil {
					b.Fatal(err)
				}
				if n, err := io.Copy(io.Discard, r); err != nil || n != int64(len(in)) {
					b.Fatalf("%d bytes, error %v", n, err)
				}
				r.Close()
			}
		})
	}
}
