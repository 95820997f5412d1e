package darshan

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// writeLog writes rt's records as a single-process log ending at endTime
// seconds, the way a single machine's job-end export does.
func writeLog(w io.Writer, rt *Runtime, endTime float64) error {
	log := rt.Export(rt.jobStart)
	log.JobEnd = endTime
	return log.Write(w)
}

func TestLogRoundTrip(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/a.jpg", 88*1024)
	r.fs.CreateFile("/data/b.bytes", 4<<20)
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/a.jpg", 1<<20)
		readWholeFileTFStyle(th, r.c, "/data/b.bytes", 1<<20)
		st, _ := r.c.Fopen(th, "/data/ckpt", "w")
		r.c.Fwrite(th, st, make([]byte, 8192))
		r.c.Fclose(th, st)
	})

	var buf bytes.Buffer
	if err := writeLog(&buf, r.rt, 12.5); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.NProcs != 1 || log.JobEnd != 12.5 {
		t.Fatalf("header = %+v", log)
	}
	if len(log.Posix) != 2 || len(log.Stdio) != 1 {
		t.Fatalf("records: posix=%d stdio=%d", len(log.Posix), len(log.Stdio))
	}
	if log.Names[RecordID("/data/a.jpg")] != "/data/a.jpg" {
		t.Fatal("name table wrong")
	}
	var a PosixRecord
	found := false
	for _, rec := range log.Posix {
		if rec.ID == RecordID("/data/a.jpg") {
			a, found = rec, true
		}
	}
	if !found {
		t.Fatal("a.jpg record missing")
	}
	live := r.posixRec(t, "/data/a.jpg")
	if a.Counters[POSIX_READS] != live.Counters[POSIX_READS] ||
		a.Counters[POSIX_BYTES_READ] != live.Counters[POSIX_BYTES_READ] {
		t.Fatal("counters changed through log round trip")
	}
	if a.FCounters[POSIX_F_READ_TIME] != live.FCounters[POSIX_F_READ_TIME] {
		t.Fatal("fcounters changed through log round trip")
	}
	// DXT segments round trip.
	if len(log.DXT) != 2 {
		t.Fatalf("dxt records = %d", len(log.DXT))
	}
	for _, rec := range log.DXT {
		if rec.ID == RecordID("/data/b.bytes") && len(rec.ReadSegs) != 5 {
			t.Fatalf("b.bytes segments = %d", len(rec.ReadSegs))
		}
	}
}

// TestWriteReadLogRoundTrip: one Log type carries both kinds, and
// ReadLog(Write(x)) is x itself — header, names, every counter, watermark
// and re-ranked ACCESS entry, per-file DXT or the rank-attributed
// timeline — for a runtime export and for a cross-rank merge.
func TestWriteReadLogRoundTrip(t *testing.T) {
	perRank := rankExports(t, 3)
	for _, tc := range []struct {
		name string
		log  *Log
	}{
		{"export", perRank[1]},
		{"merge", Merge(perRank)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := tc.log
			var buf bytes.Buffer
			if err := x.Write(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, x) {
				t.Fatalf("log did not round-trip:\n got %+v\nwant %+v", got, x)
			}
		})
	}
}

// TestLogTypesHaveNoUnexportedFields: a Log holds only what its file
// stores. Runtime state (access tables, read cursors) lives in the
// modules, not in the record types, so there is nothing Write can drop
// and ReadLog(Write(x)) equals x with no field zeroed.
func TestLogTypesHaveNoUnexportedFields(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Array, reflect.Slice, reflect.Pointer:
			walk(typ.Elem())
		case reflect.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%v has unexported field %s", typ, f.Name)
				}
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeFor[Log]())
	for _, typ := range []reflect.Type{
		reflect.TypeFor[PosixRecord](), reflect.TypeFor[StdioRecord](),
		reflect.TypeFor[DXTRecord](), reflect.TypeFor[MergedSegment](),
	} {
		if !seen[typ] {
			t.Errorf("%v is not reachable from Log", typ)
		}
	}
}

// TestLogWriteIsCanonical: re-serializing a parsed log reproduces the
// input bytes exactly, for both kinds — the byte-level half of the
// round-trip contract.
func TestLogWriteIsCanonical(t *testing.T) {
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/a.jpg", 88*1024)
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/a.jpg", 1<<20)
	})
	var single bytes.Buffer
	if err := writeLog(&single, r.rt, 3.25); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := Merge(syntheticSnapshots()).Write(&merged); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"single": single.Bytes(), "merged": merged.Bytes()} {
		log, err := ReadLog(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var again bytes.Buffer
		if err := log.Write(&again); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again.Bytes(), b) {
			t.Fatalf("%s: write(read(x)) diverged from x (%d vs %d bytes)", name, again.Len(), len(b))
		}
	}
}

// corrupt returns a copy of b with the byte at i set to v.
func corrupt(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

// recompress returns log b with extra appended to its decompressed
// payload: a well-formed gzip stream that carries data after the final
// block.
func recompress(t *testing.T, b []byte, extra ...byte) []byte {
	t.Helper()
	return rewritePayload(t, b, func(payload []byte) []byte { return append(payload, extra...) })
}

// rewritePayload returns log b with its decompressed payload replaced by
// edit's result, in a well-formed gzip stream.
func rewritePayload(t *testing.T, b []byte, edit func(payload []byte) []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b[len(logMagic)+4:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	out := bytes.NewBuffer(append([]byte(nil), b[:len(logMagic)+4]...))
	zw := gzip.NewWriter(out)
	if _, err := zw.Write(edit(payload)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestReadLogFalseCountAllocatesLittle pins the decoder's defence against
// a lying count field: a POSIX block that claims maxLogRecords records
// but carries one fails with ErrBadLog having allocated room for about
// what decoded, not for the claimed count (which would be 560 MiB).
func TestReadLogFalseCountAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	one := &Log{JobEnd: 1, NProcs: 1, Posix: []PosixRecord{{ID: 1}}}
	if err := one.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// The kind byte, the job record and an empty name table's count come
	// before the POSIX count.
	const posixCountAt = 1 + 16 + 4
	lying := rewritePayload(t, buf.Bytes(), func(payload []byte) []byte {
		if n := binary.LittleEndian.Uint32(payload[posixCountAt:]); n != 1 {
			t.Fatalf("posix count field reads %d, want 1", n)
		}
		binary.LittleEndian.PutUint32(payload[posixCountAt:], maxLogRecords)
		return payload
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadLog(bytes.NewReader(lying))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadLog) {
		t.Fatalf("err = %v, want ErrBadLog", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("decoding a one-record block that claims %d records allocated %d bytes, want < 1 MiB", maxLogRecords, alloc)
	}
}

func TestReadLogRejectsStructuralCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Merge(syntheticSnapshots()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadLog(bytes.NewReader(recompress(t, valid))); err != nil {
		t.Fatalf("recompressed log without extra bytes: %v", err)
	}

	cases := map[string][]byte{
		"byte after final block": recompress(t, valid, 0),
		"bad version":            corrupt(valid, 8, 0xFF),
		"flipped magic":          corrupt(valid, 0, 'X'),
		"corrupt gzip body":      corrupt(valid, len(valid)/2, valid[len(valid)/2]^0xA5),
		"truncated half":         valid[:len(valid)/2],
		"truncated tail":         valid[:len(valid)-3],
		"truncated header":       valid[:10],
		"empty":                  nil,
		"magic only":             valid[:8],
	}
	for name, b := range cases {
		if _, err := ReadLog(bytes.NewReader(b)); !errors.Is(err, ErrBadLog) {
			t.Errorf("%s: err = %v, want ErrBadLog", name, err)
		}
	}

	// One case per field check, each pinned to its own message so that a
	// case caught by an earlier check shows. Fields Write cannot emit are
	// patched into a valid payload: the merged timeline is its last block,
	// and a single log whose one DXT record has no segments ends in that
	// record's read and write segment counts.
	nTimeline := len(Merge(syntheticSnapshots()).Timeline)
	emptyDXT := func() *Log { return &Log{JobEnd: 1, NProcs: 1, DXT: []DXTRecord{{ID: 1}}} }
	for _, tc := range []struct {
		name, want string
		in         []byte
	}{
		{"unknown kind byte", "unknown log kind 2",
			rewritePayload(t, valid, func(p []byte) []byte { p[0] = 2; return p })},
		// A merged log claiming nprocs=2 whose record rank or timeline rank
		// escapes [-1, 2) must error, never mis-parse.
		{"merged posix rank out of range", "posix record 0: rank 7 out of range (nprocs 2)",
			writeEdited(t, Merge(syntheticSnapshots()), func(l *Log) { l.Posix[0].Rank = 7 })},
		{"merged stdio rank nprocs", "stdio record 0: rank 2 out of range (nprocs 2)",
			writeEdited(t, Merge(syntheticSnapshots()), func(l *Log) { l.Stdio[0].Rank = l.NProcs })},
		// The sentinel is record-only; timelines carry concrete ranks.
		{"timeline rank -1", "timeline segment 0: rank -1 out of range (nprocs 2)",
			writeEdited(t, Merge(syntheticSnapshots()), func(l *Log) { l.Timeline[0].Rank = MergedRank })},
		{"single-process posix rank -1", "posix record 0: rank -1 out of range (nprocs 1)",
			writeEdited(t, syntheticSnapshots()[0], func(l *Log) { l.Posix[0].Rank = MergedRank })},
		{"single-process stdio rank -1", "stdio record 0: rank -1 out of range (nprocs 1)",
			writeEdited(t, syntheticSnapshots()[0], func(l *Log) { l.Stdio[0].Rank = MergedRank })},
		// A time window that ends before it starts is corruption, not data.
		{"inverted segment window", "timeline segment 0: invalid segment geometry",
			writeEdited(t, Merge(syntheticSnapshots()), func(l *Log) { l.Timeline[0].Start, l.Timeline[0].End = 9, 1 })},
		{"timeline direction flag 2", "timeline segment 0: direction flag 2",
			rewritePayload(t, valid, func(p []byte) []byte {
				p[len(p)-nTimeline*timelineSegmentBytes+8+4] = 2
				return p
			})},
		{"negative timeline drop count", "negative timeline drop count",
			writeEdited(t, Merge(syntheticSnapshots()), func(l *Log) { l.DroppedSegments = -1 })},
		{"negative dxt drop count", "dxt record 0: negative drop count",
			writeEdited(t, emptyDXT(), func(l *Log) { l.DXT[0].Dropped = -1 })},
		{"dxt segment count over bound", fmt.Sprintf("dxt read segment count %d exceeds bound %d", maxLogSegments+1, maxLogSegments),
			rewritePayload(t, writeEdited(t, emptyDXT(), func(*Log) {}), func(p []byte) []byte {
				binary.LittleEndian.PutUint32(p[len(p)-8:], maxLogSegments+1)
				return p
			})},
	} {
		_, err := ReadLog(bytes.NewReader(tc.in))
		if !errors.Is(err, ErrBadLog) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrBadLog with %q", tc.name, err, tc.want)
		}
	}
}

// writeEdited returns l, after edit, as a log file.
func writeEdited(t *testing.T, l *Log, edit func(*Log)) []byte {
	t.Helper()
	edit(l)
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteRejectsWhatReadLogRejects: Write refuses a job record or name
// table ReadLog would reject with an ErrBadLog error, before writing any
// byte, and accepts the bounds themselves.
func TestWriteRejectsWhatReadLogRejects(t *testing.T) {
	long := map[uint64]string{7: strings.Repeat("x", 70000)}
	for _, tc := range []struct {
		name string
		log  *Log
	}{
		{"nprocs 0", &Log{JobEnd: 1}},
		{"merged nprocs 0", &Log{JobEnd: 1, Merged: true}},
		{"negative nprocs", &Log{JobEnd: 1, NProcs: -1, Merged: true}},
		{"nprocs over bound", &Log{JobEnd: 1, NProcs: maxLogNProcs + 1, Merged: true}},
		{"single-process log with 2 procs", &Log{JobEnd: 1, NProcs: 2}},
		{"negative job end", &Log{JobEnd: -1, NProcs: 1}},
		{"NaN job end", &Log{JobEnd: math.NaN(), NProcs: 4, Merged: true}},
		{"infinite job end", &Log{JobEnd: math.Inf(1), NProcs: 1}},
		{"70,000-byte name", &Log{JobEnd: 1, NProcs: 1, Names: long}},
		{"70,000-byte name, merged", &Log{JobEnd: 1, NProcs: 4, Merged: true, Names: long}},
	} {
		var buf bytes.Buffer
		if err := tc.log.Write(&buf); !errors.Is(err, ErrBadLog) {
			t.Errorf("%s: err = %v, want ErrBadLog", tc.name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before failing", tc.name, buf.Len())
		}
	}
	for _, l := range []*Log{
		{JobEnd: 0, NProcs: 1},
		{JobEnd: 1, NProcs: maxLogNProcs, Merged: true},
		{JobEnd: 1, NProcs: 1, Names: map[uint64]string{7: strings.Repeat("x", 1<<16-1)}},
	} {
		var buf bytes.Buffer
		if err := l.Write(&buf); err != nil {
			t.Fatalf("nprocs %d, merged %v: %v", l.NProcs, l.Merged, err)
		}
		if _, err := ReadLog(&buf); err != nil {
			t.Errorf("nprocs %d, merged %v: read back: %v", l.NProcs, l.Merged, err)
		}
	}
}

func TestParseLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("not a log at all......."))); !errors.Is(err, ErrBadLog) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ReadLog(bytes.NewReader(nil)); !errors.Is(err, ErrBadLog) {
		t.Fatalf("empty err = %v", err)
	}
	// Truncated after the magic.
	var buf bytes.Buffer
	buf.Write(logMagic[:])
	if _, err := ReadLog(&buf); !errors.Is(err, ErrBadLog) {
		t.Fatalf("truncated err = %v", err)
	}
}

// Property: any mix of files and read patterns survives a log round trip
// with counters intact.
func TestPropertyLogRoundTrip(t *testing.T) {
	f := func(nFiles uint8, sizes []uint32) bool {
		n := int(nFiles%5) + 1
		r := newRig(DefaultConfig())
		paths := make([]string, n)
		for i := 0; i < n; i++ {
			sz := int64(1024)
			if i < len(sizes) {
				sz = int64(sizes[i]%3_000_000) + 1
			}
			paths[i] = "/data/f" + string(rune('0'+i))
			r.fs.CreateFile(paths[i], sz)
		}
		ok := true
		r.run(&testing.T{}, func(th *sim.Thread) {
			for _, p := range paths {
				readWholeFileTFStyle(th, r.c, p, 1<<20)
			}
		})
		var buf bytes.Buffer
		if err := writeLog(&buf, r.rt, 1); err != nil {
			return false
		}
		log, err := ReadLog(&buf)
		if err != nil {
			return false
		}
		if len(log.Posix) != n {
			return false
		}
		if _, err := checkReadReplay(log); err != nil {
			t.Error(err)
			return false
		}
		for _, rec := range log.Posix {
			live := r.rt.Posix.Records()
			var match *PosixRecord
			for _, lr := range live {
				if lr.ID == rec.ID {
					match = lr
				}
			}
			if match == nil {
				return false
			}
			for ci := PosixCounter(0); ci < POSIX_ACCESS1_ACCESS; ci++ {
				if rec.Counters[ci] != match.Counters[ci] {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes read recorded by Darshan equals the sum of file
// sizes for whole-file scans (accounting invariant).
func TestPropertyBytesReadAccounting(t *testing.T) {
	f := func(sizes []uint32) bool {
		if len(sizes) == 0 || len(sizes) > 6 {
			return true
		}
		r := newRig(DefaultConfig())
		var want int64
		paths := make([]string, len(sizes))
		for i, s := range sizes {
			sz := int64(s%2_000_000) + 1
			want += sz
			paths[i] = "/data/p" + string(rune('a'+i))
			r.fs.CreateFile(paths[i], sz)
		}
		r.run(&testing.T{}, func(th *sim.Thread) {
			for _, p := range paths {
				readWholeFileTFStyle(th, r.c, p, 256<<10)
			}
		})
		var got int64
		for _, rec := range r.rt.Posix.Records() {
			got += rec.Counters[POSIX_BYTES_READ]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: size histogram buckets sum to the number of reads.
func TestPropertySizeBucketsSumToReads(t *testing.T) {
	f := func(sizes []uint32, chunk uint32) bool {
		if len(sizes) == 0 || len(sizes) > 5 {
			return true
		}
		ck := int(chunk%(2<<20)) + 1
		r := newRig(DefaultConfig())
		paths := make([]string, len(sizes))
		for i, s := range sizes {
			paths[i] = "/data/q" + string(rune('a'+i))
			r.fs.CreateFile(paths[i], int64(s%4_000_000)+1)
		}
		r.run(&testing.T{}, func(th *sim.Thread) {
			for _, p := range paths {
				readWholeFileTFStyle(th, r.c, p, ck)
			}
		})
		for _, rec := range r.rt.Posix.Records() {
			var sum int64
			for b := POSIX_SIZE_READ_0_100; b <= POSIX_SIZE_READ_1G_PLUS; b++ {
				sum += rec.Counters[b]
			}
			if sum != rec.Counters[POSIX_READS] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBucketEdges(t *testing.T) {
	cases := []struct {
		size int64
		want PosixCounter
	}{
		{0, POSIX_SIZE_READ_0_100},
		{100, POSIX_SIZE_READ_0_100},
		{101, POSIX_SIZE_READ_100_1K},
		{1024, POSIX_SIZE_READ_100_1K},
		{1025, POSIX_SIZE_READ_1K_10K},
		{10 * 1024, POSIX_SIZE_READ_1K_10K},
		{100 * 1024, POSIX_SIZE_READ_10K_100K},
		{1 << 20, POSIX_SIZE_READ_100K_1M}, // exactly 1MiB: upper-inclusive
		{1<<20 + 1, POSIX_SIZE_READ_1M_4M},
		{4 << 20, POSIX_SIZE_READ_1M_4M},
		{10 << 20, POSIX_SIZE_READ_4M_10M},
		{100 << 20, POSIX_SIZE_READ_10M_100M},
		{1 << 30, POSIX_SIZE_READ_100M_1G},
		{1<<30 + 1, POSIX_SIZE_READ_1G_PLUS},
	}
	for _, c := range cases {
		if got := readSizeBucket(c.size); got != c.want {
			t.Errorf("readSizeBucket(%d) = %v, want %v", c.size, got, c.want)
		}
	}
	// The counters and the analysis histograms bucket every edge and the
	// size past it alike.
	h := stats.NewDarshanSizeHistogram()
	if got, want := len(h.Counts), int(POSIX_SIZE_READ_1G_PLUS-POSIX_SIZE_READ_0_100)+1; got != want {
		t.Fatalf("%d histogram buckets, %d size counters", got, want)
	}
	for _, edge := range stats.DarshanSizeEdges {
		for _, size := range []int64{edge, edge + 1} {
			if got, want := readSizeBucket(size), POSIX_SIZE_READ_0_100+PosixCounter(h.BucketFor(size)); got != want {
				t.Errorf("readSizeBucket(%d) = %v, histogram bucket %v", size, got, want)
			}
		}
	}
}

func TestCounterNames(t *testing.T) {
	if POSIX_OPENS.String() != "POSIX_OPENS" {
		t.Error("posix counter name")
	}
	if POSIX_F_READ_TIME.String() != "POSIX_F_READ_TIME" {
		t.Error("posix fcounter name")
	}
	if STDIO_WRITES.String() != "STDIO_WRITES" {
		t.Error("stdio counter name")
	}
	if STDIO_F_WRITE_TIME.String() != "STDIO_F_WRITE_TIME" {
		t.Error("stdio fcounter name")
	}
	if PosixCounter(-1).String() != "POSIX_UNKNOWN" {
		t.Error("out of range name")
	}
}

// counterEnums parses counters.go and returns, per counter type, its
// constant names in declaration order (the Num* sentinels excluded).
func counterEnums(t *testing.T) map[string][]string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "counters.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	enums := make(map[string][]string)
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if !strings.Contains(name.Name, "Num") {
					enums[typ.Name] = append(enums[typ.Name], name.Name)
				}
			}
		}
	}
	return enums
}

// TestCounterKindsMatchNames pins every counter table entry against its
// enum constant (same name, same position, same count) and its reduction
// kind against its Darshan name.
func TestCounterKindsMatchNames(t *testing.T) {
	wantKind := func(name string) counterKind {
		switch {
		case strings.HasSuffix(name, "_START_TIMESTAMP"):
			return kindEarliest
		case strings.HasSuffix(name, "_END_TIMESTAMP"),
			strings.Contains(name, "MAX_BYTE"),
			strings.Contains(name, "_F_MAX_"):
			return kindMax
		case strings.Contains(name, "ACCESS"):
			return kindAccess
		}
		return kindSum
	}
	enums := counterEnums(t)
	for _, tb := range []struct {
		enum string
		defs []counterDef
	}{
		{"PosixCounter", posixCounters[:]},
		{"PosixFCounter", posixFCounters[:]},
		{"StdioCounter", stdioCounters[:]},
		{"StdioFCounter", stdioFCounters[:]},
	} {
		consts := enums[tb.enum]
		if len(consts) == 0 || len(tb.defs) != len(consts) {
			t.Fatalf("%s: table has %d entries, enum has %d", tb.enum, len(tb.defs), len(consts))
		}
		for i, d := range tb.defs {
			if d.name != consts[i] {
				t.Errorf("%s[%d] = %s, want %s", tb.enum, i, d.name, consts[i])
			}
			if want := wantKind(d.name); d.kind != want {
				t.Errorf("%s: kind %d, want %d", d.name, d.kind, want)
			}
		}
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

// TestLogWriteErrorReleasesWorkers: a destination that fails part-way
// through a multi-megabyte log gives its error back, and the
// compressor's workers are gone afterwards.
func TestLogWriteErrorReleasesWorkers(t *testing.T) {
	log := Merge(timelineSnapshots(benchRanks, 16, 100_000))
	for _, n := range []int{0, 100, 200 << 10} {
		baseline := runtime.NumGoroutine()
		if err := log.Write(&failAfter{n: n}); !errors.Is(err, errDeviceFull) {
			t.Fatalf("write failing after %d bytes returned %v", n, err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), baseline)
			}
		}
	}
}

// TestReadLogReleasesWorker: a multi-megabyte log cut at several points,
// from inside the gzip header to the trailer's last byte, or with a byte
// flipped, reads back as an ErrBadLog error, and the inflate worker is
// gone afterwards, as it is after a clean read.
func TestReadLogReleasesWorker(t *testing.T) {
	var buf bytes.Buffer
	if err := Merge(timelineSnapshots(benchRanks, 16, 100_000)).Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	flipped := bytes.Clone(full)
	flipped[len(flipped)/2] ^= 0x40
	inputs := map[string][]byte{"clean": full, "flipped": flipped}
	for _, cut := range []int{len(logMagic) + 4 + 5, len(full) / 3, len(full) - 8, len(full) - 1} {
		inputs[fmt.Sprintf("cut at %d of %d", cut, len(full))] = full[:cut]
	}
	for name, in := range inputs {
		baseline := runtime.NumGoroutine()
		_, err := ReadLog(bytes.NewReader(in))
		if name == "clean" && err != nil || name != "clean" && !errors.Is(err, ErrBadLog) {
			t.Fatalf("%s: ReadLog returned %v", name, err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines left running, %d before", name, runtime.NumGoroutine(), baseline)
			}
		}
	}
}
