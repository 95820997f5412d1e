package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/tf/profiler"
)

func sampleSpace() *profiler.XSpace {
	var s profiler.XSpace
	host := s.Plane("/host:CPU")
	l := host.Line(1, "main")
	l.Events = append(l.Events, profiler.XEvent{Name: "train_step", StartNs: 1_000_000, DurNs: 2_000_000})
	d := s.Plane("/host:tf-darshan(POSIX)")
	d.SetStat("posix_reads", "4")
	f := d.Line(2, "/data/a.jpg")
	data := profiler.XEvent{Name: "pread", StartNs: 1_100_000, DurNs: 500_000}
	data.SetIO(0, 88064)
	eof := profiler.XEvent{Name: "pread", StartNs: 1_700_000, DurNs: 1_000}
	eof.SetIO(88064, 0)
	f.Events = append(f.Events, data, eof)
	return &s
}

// The reflection encoder WriteJSONGz replaced, kept as the oracle its
// bytes are compared against.

type oracleEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type oracleMetadata struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid,omitempty"`
	Args map[string]string `json:"args"`
}

func oracleFromXSpace(space *profiler.XSpace, sessionStartNs int64) *File {
	f := &File{}
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		f.TraceEvents = append(f.TraceEvents, b)
	}
	for pi, plane := range space.Planes {
		pid := pi + 1
		add(oracleMetadata{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": plane.Name}})
		for _, line := range plane.Lines {
			add(oracleMetadata{Name: "thread_name", Ph: "M", PID: pid, TID: line.ID,
				Args: map[string]string{"name": line.Name}})
			for _, ev := range line.Events {
				var args map[string]string
				if off, n, ok := ev.IO(); ok {
					args = map[string]string{"offset": fmt.Sprint(off), "length": fmt.Sprint(n)}
				}
				add(oracleEvent{
					Name: ev.Name,
					Ph:   "X",
					TS:   float64(ev.StartNs-sessionStartNs) / 1e3,
					Dur:  float64(ev.DurNs) / 1e3,
					PID:  pid,
					TID:  line.ID,
					Args: args,
				})
			}
		}
	}
	return f
}

func oracleJSON(t testing.TB, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gz(t testing.TB, plain []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gunzip(t testing.TB, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

func writeGz(t testing.TB, space *profiler.XSpace, sessionStartNs int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONGz(&buf, space, sessionStartNs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkMatchesOracle fails unless WriteJSONGz and the reflection oracle
// agree on both the JSON bytes and the gzip bytes.
func checkMatchesOracle(t testing.TB, space *profiler.XSpace, sessionStartNs int64) {
	t.Helper()
	want := oracleJSON(t, oracleFromXSpace(space, sessionStartNs))
	got := writeGz(t, space, sessionStartNs)
	if plain := gunzip(t, got); !bytes.Equal(plain, want) {
		t.Fatalf("JSON differs from oracle:\n got %s\nwant %s", plain, want)
	}
	if !bytes.Equal(got, gz(t, want)) {
		t.Fatal("gzip bytes differ from oracle")
	}
}

func TestFromXSpaceStructure(t *testing.T) {
	f, err := ReadJSONGz(bytes.NewReader(writeGz(t, sampleSpace(), 1_000_000)))
	if err != nil {
		t.Fatal(err)
	}
	// 2 process metadata + 2 thread metadata + 3 events.
	if len(f.TraceEvents) != 7 {
		t.Fatalf("events = %d", len(f.TraceEvents))
	}
	var joined string
	for _, raw := range f.TraceEvents {
		joined += string(raw)
	}
	for _, want := range []string{
		`"process_name"`, `"thread_name"`, `"/host:tf-darshan(POSIX)"`,
		`"train_step"`, `"pread"`, `"offset":"88064"`, `"length":"0"`,
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
	// Session-relative timestamps: first event at t=0us.
	if !strings.Contains(joined, `"ts":0`) {
		t.Fatal("timestamps not session-relative")
	}
}

func TestJSONGzRoundTrip(t *testing.T) {
	got, err := ReadJSONGz(bytes.NewReader(writeGz(t, sampleSpace(), 0)))
	if err != nil {
		t.Fatal(err)
	}
	want := oracleFromXSpace(sampleSpace(), 0)
	if len(got.TraceEvents) != len(want.TraceEvents) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.TraceEvents), len(want.TraceEvents))
	}
	for i := range want.TraceEvents {
		if !bytes.Equal(got.TraceEvents[i], want.TraceEvents[i]) {
			t.Fatalf("event %d: %s, want %s", i, got.TraceEvents[i], want.TraceEvents[i])
		}
	}
}

func TestReadJSONGzRejectsPlain(t *testing.T) {
	if _, err := ReadJSONGz(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("plain JSON accepted as gzip")
	}
}

// TestReadJSONGzRejectsDamagedStream: the JSON decoder alone stops at the
// closing brace, so without reading the gzip stream to its end a damaged
// trailer or trailing bytes would go unnoticed.
func TestReadJSONGzRejectsDamagedStream(t *testing.T) {
	doc := writeGz(t, sampleSpace(), 0)
	n := len(doc)
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), doc...)) }
	for _, tc := range []struct {
		name string
		data []byte
		want error // nil: any error
	}{
		{"corrupt CRC", edit(func(b []byte) []byte { b[n-8] ^= 0xff; return b }), gzip.ErrChecksum},
		{"corrupt length", edit(func(b []byte) []byte { b[n-1] ^= 0xff; return b }), gzip.ErrChecksum},
		{"truncated trailer", doc[:n-3], io.ErrUnexpectedEOF},
		{"trailer missing", doc[:n-8], io.ErrUnexpectedEOF},
		{"garbage after gzip", append(append([]byte(nil), doc...), "garbage!!!!!"...), gzip.ErrHeader},
		{"garbage after document", gz(t, []byte(`{"traceEvents":[]} x`)), nil},
		{"second document", gz(t, []byte(`{"traceEvents":[]}{"traceEvents":[]}`)), nil},
	} {
		_, err := ReadJSONGz(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := ReadJSONGz(bytes.NewReader(gz(t, []byte("{\"traceEvents\":null} \r\n\t\n")))); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

func TestWriteJSONGzEdgeCasesMatchOracle(t *testing.T) {
	names := []string{
		"", `quote"d`, `back\slash`, "<html>&amp;", "ctl\x00\x01\x1f\x7f", "tab\tnl\nbs\bff\f",
		"naïve/файл/文件", "bad\xffutf8\xc3", "line\u2028para\u2029", "emoji\U0001F600",
	}
	var s profiler.XSpace
	for i, name := range names {
		p := s.Plane(fmt.Sprintf("/plane:%d:%s", i, name))
		p.Line(0, name) // line ID 0: no tid on its thread_name
		l := p.Line(int64(i)-3, "line "+name)
		add := func(ev profiler.XEvent) { l.Events = append(l.Events, ev) }
		add(profiler.XEvent{Name: name, StartNs: -1_234_567, DurNs: 0})
		add(profiler.XEvent{Name: "nil args", StartNs: 1})
		withIO := profiler.XEvent{Name: "io", StartNs: 5_000, DurNs: 3}
		withIO.SetIO(int64(i)*4096, 88064)
		add(withIO)
		negative := profiler.XEvent{Name: "negative io", StartNs: 6_000, DurNs: 4}
		negative.SetIO(-1, 0)
		add(negative)
		extreme := profiler.XEvent{Name: "extreme io", StartNs: 7_000}
		extreme.SetIO(math.MaxInt64, math.MinInt64)
		add(extreme)
		add(profiler.XEvent{Name: "extremes", StartNs: math.MaxInt64, DurNs: math.MinInt64})
	}
	for _, start := range []int64{0, 1_000_000, -7, math.MinInt64, math.MaxInt64} {
		checkMatchesOracle(t, &s, start)
	}
}

func TestWriteJSONGzEmptySpace(t *testing.T) {
	if got := gunzip(t, writeGz(t, &profiler.XSpace{}, 0)); string(got) != "{\"traceEvents\":null}\n" {
		t.Fatalf("empty space = %q", got)
	}
	checkMatchesOracle(t, &profiler.XSpace{}, 0)
	// Planes without lines still name their process.
	var s profiler.XSpace
	s.Plane("/empty")
	checkMatchesOracle(t, &s, 0)
}

// randomSpace draws a small XSpace over the shapes the writer
// distinguishes: line IDs around 0, events with and without I/O args,
// zero durations and times either side of the session start.
func randomSpace(rng *rand.Rand) *profiler.XSpace {
	pool := []string{"pread", "pwrite", "/data/train/img_0001.JPEG", "IteratorGetNext",
		"offset", "length", "name", "a<b", `q"`, "é", "\xfe", " ", "", "\x1b[0m"}
	pick := func() string { return pool[rng.Intn(len(pool))] }
	var s profiler.XSpace
	for p := rng.Intn(4); p > 0; p-- {
		plane := s.Plane(pick() + fmt.Sprint(p))
		for l := rng.Intn(5); l > 0; l-- {
			line := &profiler.XLine{ID: rng.Int63n(7) - 2, Name: pick()}
			if rng.Intn(4) == 0 {
				line.ID = rng.Int63()
			}
			plane.Lines = append(plane.Lines, line)
			for e := rng.Intn(7); e > 0; e-- {
				ev := profiler.XEvent{Name: pick(), StartNs: rng.Int63n(20_000_000) - 1_000_000}
				if rng.Intn(3) > 0 {
					ev.DurNs = rng.Int63n(5_000_000)
				}
				if rng.Intn(2) == 0 {
					ev.SetIO(rng.Int63n(1<<30), rng.Int63n(1<<20))
				}
				line.Events = append(line.Events, ev)
			}
		}
	}
	return &s
}

func TestWriteJSONGzRandomSpacesMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkMatchesOracle(t, randomSpace(rng), rng.Int63n(2_000_000))
	}
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{
		0, 1, -1, 0.001, -0.001, 1e-6, 9.99e-7, 1e-7, 1.5e-7, 1e-10, 1e-100, 5e-324,
		1e20, 1e21, -1e21, 1.2345e21, 1e100, math.MaxFloat64, 123456.789, 9223372036854775.807,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// imagenetSpace is shaped like the imagenet-profiled trace: a host plane
// of op events and a tf-Darshan plane with one line per file, each file
// read by two preads (the data, then the zero-length EOF read).
func imagenetSpace(files, hostOps int) *profiler.XSpace {
	var s profiler.XSpace
	host := s.Plane("/host:CPU")
	for i := 0; i < 4; i++ {
		l := host.Line(int64(i+1), fmt.Sprintf("tf_data_private_threadpool/%d", i))
		for j := 0; j < hostOps/4; j++ {
			l.Events = append(l.Events, profiler.XEvent{Name: "ParallelMapV2::ReadFile",
				StartNs: int64(j) * 1_337_113, DurNs: 812_411})
		}
	}
	posix := s.Plane("/host:tf-darshan(POSIX)")
	for i := 0; i < files; i++ {
		l := posix.Line(1<<40+int64(i)*2_654_435_761, fmt.Sprintf("/lustre/imagenet/train/n%08d/img_%07d.JPEG", i%1000, i))
		first := profiler.XEvent{Name: "pread", StartNs: int64(i) * 310_007, DurNs: 290_113}
		first.SetIO(0, 110_000+int64(i%4096))
		eof := profiler.XEvent{Name: "pread", StartNs: first.StartNs + first.DurNs, DurNs: 1_011}
		eof.SetIO(110_000+int64(i%4096), 0)
		l.Events = append(l.Events, first, eof)
	}
	return &s
}

func TestWriteJSONGzImagenetShapeMatchesOracle(t *testing.T) {
	checkMatchesOracle(t, imagenetSpace(500, 200), 12_345)
}

// TestWriteJSONGzAllocsConstant: the writer's allocations (the gzip
// compressor and the chunk buffer) do not grow with the event count.
func TestWriteJSONGzAllocsConstant(t *testing.T) {
	allocs := func(events int) float64 {
		space := imagenetSpace(events/3, events/3)
		return testing.AllocsPerRun(2, func() {
			if err := WriteJSONGz(io.Discard, space, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if large > small {
		t.Fatalf("allocs grew with event count: %v at 1k events, %v at 100k", small, large)
	}
}

// BenchmarkWriteJSONGz exports about 320k events, the size of the
// imagenet-profiled trace (100k files of two preads each plus host ops).
func BenchmarkWriteJSONGz(b *testing.B) {
	space := imagenetSpace(100_000, 20_000)
	var buf bytes.Buffer
	if err := WriteJSONGz(&buf, space, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(gunzip(b, buf.Bytes()))))
	b.ReportAllocs()
	defer cpuPerOp(b)()
	for b.Loop() {
		buf.Reset()
		if err := WriteJSONGz(&buf, space, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// cpuPerOp starts counting the process's CPU time, user plus system over
// every thread; the func it returns reports it per iteration as
// cpu-ms/op, so the gzip writer's workers show next to ns/op.
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

func FuzzWriteJSONGzMatchesOracle(f *testing.F) {
	f.Add("/host:CPU", "main", "pread", "v", int64(1), int64(1_000_000), int64(500), int64(0), int64(0), int64(88064), true)
	f.Add("", "", "", "", int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), false)
	f.Add("<&>", " ", "\xff", "\x00", int64(-5), int64(-1), int64(1), int64(math.MaxInt64), int64(-1), int64(math.MinInt64), true)
	f.Fuzz(func(t *testing.T, plane, line, name, value string, lineID, startNs, durNs, sessionStartNs, offset, length int64, hasIO bool) {
		var s profiler.XSpace
		l := s.Plane(plane).Line(lineID, line)
		ev := profiler.XEvent{Name: name, StartNs: startNs, DurNs: durNs}
		if hasIO {
			ev.SetIO(offset, length)
		}
		l.Events = append(l.Events, ev, profiler.XEvent{Name: value, StartNs: durNs, DurNs: startNs})
		checkMatchesOracle(t, &s, sessionStartNs)
	})
}

func FuzzReadJSONGz(f *testing.F) {
	f.Add(writeGz(f, sampleSpace(), 0))
	f.Add(writeGz(f, &profiler.XSpace{}, 0))
	f.Add(gz(f, []byte(`{"traceEvents":[{"name":"x","ph":"X"},null,1,"s",[]]}`)))
	f.Add(gz(f, []byte(`{"traceEvents":[]} x`)))
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadJSONGz(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted document decodes the same after a re-encode.
		again, err := ReadJSONGz(bytes.NewReader(gz(t, oracleJSON(t, doc))))
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v", err)
		}
		if len(again.TraceEvents) != len(doc.TraceEvents) {
			t.Fatalf("%d events after re-encode, want %d", len(again.TraceEvents), len(doc.TraceEvents))
		}
		for i, raw := range doc.TraceEvents {
			want, err := json.Marshal(raw) // compacted as the encoder writes it
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.TraceEvents[i], want) {
				t.Fatalf("event %d: %s after re-encode, want %s", i, again.TraceEvents[i], want)
			}
		}
	})
}

func TestRenderTimelines(t *testing.T) {
	out := RenderTimelines(sampleSpace(), 1_000_000, 0, 0)
	for _, want := range []string{
		"=== /host:CPU ===", "train_step",
		"=== /host:tf-darshan(POSIX) ===",
		"posix_reads: 4",
		"/data/a.jpg", "pread length=0 offset=88064",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderTimelinesTruncation(t *testing.T) {
	var s profiler.XSpace
	p := s.Plane("/p")
	for i := int64(0); i < 10; i++ {
		l := p.Line(i, "line")
		for j := 0; j < 20; j++ {
			l.Events = append(l.Events, profiler.XEvent{Name: "e", StartNs: int64(j), DurNs: 1})
		}
	}
	out := RenderTimelines(&s, 0, 2, 3)
	if !strings.Contains(out, "... 8 more timelines") {
		t.Fatalf("line truncation missing:\n%s", out)
	}
	if !strings.Contains(out, "... 17 more events") {
		t.Fatalf("event truncation missing:\n%s", out)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDeviceFull = errors.New("device full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errDeviceFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteJSONGzErrorReleasesWorkers: a destination that fails
// part-way through a multi-megabyte trace gives its error back, and the
// compressor's workers are gone afterwards.
func TestWriteJSONGzErrorReleasesWorkers(t *testing.T) {
	space := imagenetSpace(20_000, 4_000)
	for _, n := range []int{0, 100, 200 << 10} {
		baseline := runtime.NumGoroutine()
		if err := WriteJSONGz(&failAfter{n: n}, space, 0); !errors.Is(err, errDeviceFull) {
			t.Fatalf("write failing after %d bytes returned %v", n, err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), baseline)
			}
		}
	}
}

// TestReadJSONGzReleasesWorker: a multi-megabyte trace cut at several
// points, from inside the gzip header to the trailer's last byte, with a
// byte flipped, or whose JSON breaks at its first byte while megabytes
// are left to inflate, reads back as an error, and the inflate worker is
// gone afterwards, as it is after a clean read.
func TestReadJSONGzReleasesWorker(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONGz(&buf, imagenetSpace(20_000, 4_000), 0); err != nil {
		t.Fatal(err)
	}
	full := bytes.Clone(buf.Bytes())
	flipped := bytes.Clone(full)
	flipped[len(flipped)/2] ^= 0x40
	zr, err := gzip.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	doc[0] = 'x'
	buf.Reset()
	zw := gzip.NewWriter(&buf)
	zw.Write(doc)
	zw.Close()
	inputs := map[string][]byte{"clean": full, "flipped": flipped, "bad JSON": buf.Bytes()}
	for _, cut := range []int{5, len(full) / 3, len(full) - 8, len(full) - 1} {
		inputs[fmt.Sprintf("cut at %d of %d", cut, len(full))] = full[:cut]
	}
	for name, in := range inputs {
		baseline := runtime.NumGoroutine()
		if _, err := ReadJSONGz(bytes.NewReader(in)); (err == nil) != (name == "clean") {
			t.Fatalf("%s: ReadJSONGz returned %v", name, err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines left running, %d before", name, runtime.NumGoroutine(), baseline)
			}
		}
	}
}
