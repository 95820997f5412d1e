package proto

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	for _, v := range cases {
		var e Encoder
		e.Uint64(1, v)
		d := NewDecoder(e.Bytes())
		f, w, err := d.Key()
		if err != nil || f != 1 || w != WireVarint {
			t.Fatalf("key = %d/%d/%v", f, w, err)
		}
		got, err := d.Uint64()
		if err != nil || got != v {
			t.Fatalf("Uint64(%d) = %d, %v", v, got, err)
		}
	}
}

func TestDoubleRoundTrip(t *testing.T) {
	for _, v := range []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		var e Encoder
		e.Double(2, v)
		d := NewDecoder(e.Bytes())
		d.Key()
		got, err := d.Double()
		if err != nil || got != v {
			t.Fatalf("Double(%v) = %v, %v", v, got, err)
		}
	}
}

func TestStringAndBytes(t *testing.T) {
	var e Encoder
	e.String(1, "hello")
	e.BytesField(2, []byte{0, 1, 2})
	d := NewDecoder(e.Bytes())
	d.Key()
	if s, _ := d.StringField(); s != "hello" {
		t.Fatalf("string = %q", s)
	}
	d.Key()
	if b, _ := d.Bytes(); !bytes.Equal(b, []byte{0, 1, 2}) {
		t.Fatalf("bytes = %v", b)
	}
	if d.More() {
		t.Fatal("trailing data")
	}
}

func TestSkipUnknownFields(t *testing.T) {
	var e Encoder
	e.Uint64(99, 7)
	e.Double(98, 1.5)
	e.String(97, "x")
	e.Uint64(1, 42)
	d := NewDecoder(e.Bytes())
	var got uint64
	for d.More() {
		f, w, err := d.Key()
		if err != nil {
			t.Fatal(err)
		}
		if f == 1 {
			got, _ = d.Uint64()
		} else if err := d.Skip(w); err != nil {
			t.Fatal(err)
		}
	}
	if got != 42 {
		t.Fatalf("got = %d", got)
	}
}

func TestTruncatedInputs(t *testing.T) {
	var e Encoder
	e.String(1, "hello world")
	full := e.Bytes()
	for cut := 1; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_, _, err := d.Key()
		if err == nil {
			_, err = d.StringField()
		}
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	d := NewDecoder([]byte{0x09}) // fixed64 key, no payload
	d.Key()
	if _, err := d.Double(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestDarshanProfileRoundTripFull(t *testing.T) {
	in := &DarshanProfile{
		StartTime: 1.25, EndTime: 9.75,
		BytesRead: 123456789, BytesWritten: 42,
		Opens: 128000, Reads: 256000, Writes: 7, Seeks: 3, Stats: 2,
		ReadBandwidthMBps: 94.5, WriteBandwidthMBps: 0.25,
		ZeroReads: 128000, SeqReads: 128000, ConsecReads: 128000,
		ReadSizeBuckets:  []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		WriteSizeBuckets: []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		FileSizeBuckets:  []int64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		FilesAccessed:    128000,
		StdioOpens:       20, StdioWrites: 1400, StdioBytesWritten: 2440000000,
		Files: []FileProfile{
			{RecordID: 0xDEADBEEF, Name: "/data/a", Opens: 1, Reads: 2, BytesRead: 88064, ReadTime: 0.003, Size: 88064},
			{RecordID: 0xCAFE, Name: "/data/b", Opens: 1, Reads: 5, Writes: 1, BytesRead: 4 << 20, ReadTime: 0.05, Size: 4 << 20},
		},
	}
	out, err := UnmarshalDarshanProfile(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Opens != in.Opens || out.Reads != in.Reads || out.ZeroReads != in.ZeroReads {
		t.Fatalf("counters: %+v", out)
	}
	if out.ReadBandwidthMBps != in.ReadBandwidthMBps {
		t.Fatal("bandwidth")
	}
	if len(out.ReadSizeBuckets) != 10 || out.ReadSizeBuckets[9] != 10 {
		t.Fatalf("read buckets = %v", out.ReadSizeBuckets)
	}
	if len(out.Files) != 2 || out.Files[0].Name != "/data/a" || out.Files[1].RecordID != 0xCAFE {
		t.Fatalf("files = %+v", out.Files)
	}
	if out.Files[1].ReadTime != 0.05 {
		t.Fatal("file read time")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalDarshanProfile([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// Property: any profile with random scalar values round trips.
func TestPropertyProfileRoundTrip(t *testing.T) {
	f := func(br, bw int64, opens, reads uint32, bwf float64, name string) bool {
		in := &DarshanProfile{
			BytesRead: br, BytesWritten: bw,
			Opens: int64(opens), Reads: int64(reads),
			ReadBandwidthMBps: bwf,
			Files:             []FileProfile{{RecordID: 7, Name: name, Reads: int64(reads)}},
		}
		out, err := UnmarshalDarshanProfile(in.Marshal())
		if err != nil {
			return false
		}
		sameBW := out.ReadBandwidthMBps == in.ReadBandwidthMBps ||
			(math.IsNaN(out.ReadBandwidthMBps) && math.IsNaN(in.ReadBandwidthMBps))
		return out.BytesRead == br && out.BytesWritten == bw &&
			out.Opens == int64(opens) && out.Reads == int64(reads) &&
			sameBW && len(out.Files) == 1 && out.Files[0].Name == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// marshalNested is the nested-encoder Marshal that the one-pass Marshal
// replaced: one Encoder per file, copied into the parent by Message. It
// is kept as the oracle the one-pass encoding must equal byte for byte.
func marshalNested(p *DarshanProfile) []byte {
	var e Encoder
	e.Double(1, p.StartTime)
	e.Double(2, p.EndTime)
	e.Int64(3, p.BytesRead)
	e.Int64(4, p.BytesWritten)
	e.Int64(5, p.Opens)
	e.Int64(6, p.Reads)
	e.Int64(7, p.Writes)
	e.Int64(8, p.Seeks)
	e.Int64(9, p.Stats)
	e.Double(10, p.ReadBandwidthMBps)
	e.Double(11, p.WriteBandwidthMBps)
	e.Int64(12, p.ZeroReads)
	e.Int64(13, p.SeqReads)
	e.Int64(14, p.ConsecReads)
	for _, v := range p.ReadSizeBuckets {
		e.Int64(15, v)
	}
	for _, v := range p.WriteSizeBuckets {
		e.Int64(16, v)
	}
	for _, v := range p.FileSizeBuckets {
		e.Int64(17, v)
	}
	e.Int64(18, p.FilesAccessed)
	e.Int64(19, p.StdioOpens)
	e.Int64(20, p.StdioWrites)
	e.Int64(21, p.StdioBytesWritten)
	e.Int64(22, p.StdioReads)
	e.Int64(23, p.StdioBytesRead)
	for i := range p.Files {
		var fe Encoder
		f := &p.Files[i]
		fe.Uint64(1, f.RecordID)
		fe.String(2, f.Name)
		fe.Int64(3, f.Opens)
		fe.Int64(4, f.Reads)
		fe.Int64(5, f.Writes)
		fe.Int64(6, f.BytesRead)
		fe.Double(7, f.ReadTime)
		fe.Int64(8, f.Size)
		e.Message(24, &fe)
	}
	return e.Bytes()
}

// randomProfile fills every field of a profile from r. Integers are drawn
// across every varint length, negatives included (ten bytes each);
// doubles include NaN, ±Inf and −0; names run from empty to past 127
// bytes, where the length prefix takes two bytes; bucket slices may be
// nil, empty or long.
func randomProfile(r *rand.Rand) *DarshanProfile {
	i64 := func() int64 {
		v := r.Int64() >> r.IntN(64)
		switch r.IntN(4) {
		case 0:
			return 0
		case 1:
			return -v
		default:
			return v
		}
	}
	f64 := func() float64 {
		switch r.IntN(6) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1 - 2*r.IntN(2))
		case 2:
			return math.Copysign(0, -1)
		default:
			return r.NormFloat64() * 1e6
		}
	}
	buckets := func() []int64 {
		switch r.IntN(3) {
		case 0:
			return nil
		case 1:
			return []int64{}
		}
		b := make([]int64, r.IntN(12))
		for i := range b {
			b[i] = i64()
		}
		return b
	}
	p := &DarshanProfile{
		StartTime: f64(), EndTime: f64(),
		BytesRead: i64(), BytesWritten: i64(),
		Opens: i64(), Reads: i64(), Writes: i64(), Seeks: i64(), Stats: i64(),
		ReadBandwidthMBps: f64(), WriteBandwidthMBps: f64(),
		ZeroReads: i64(), SeqReads: i64(), ConsecReads: i64(),
		ReadSizeBuckets: buckets(), WriteSizeBuckets: buckets(), FileSizeBuckets: buckets(),
		FilesAccessed: i64(),
		StdioOpens:    i64(), StdioWrites: i64(), StdioBytesWritten: i64(),
		StdioReads: i64(), StdioBytesRead: i64(),
	}
	if r.IntN(4) > 0 {
		p.Files = make([]FileProfile, r.IntN(20))
	}
	for i := range p.Files {
		p.Files[i] = FileProfile{
			RecordID: r.Uint64() >> uint(r.IntN(64)),
			Name:     strings.Repeat("d", r.IntN(300)),
			Opens:    i64(), Reads: i64(), Writes: i64(), BytesRead: i64(),
			ReadTime: f64(), Size: i64(),
		}
	}
	return p
}

// TestMarshalMatchesNestedEncoder: the one-pass Marshal writes exactly
// the bytes of the nested-encoder oracle, over random profiles and the
// edge cases named in randomProfile.
func TestMarshalMatchesNestedEncoder(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	cases := []*DarshanProfile{
		{},
		{Files: []FileProfile{}},
		{Files: []FileProfile{{}}},
		{Files: []FileProfile{{Name: strings.Repeat("x", 127)}, {Name: strings.Repeat("y", 128)}, {Name: strings.Repeat("z", 1<<14)}}},
		{Opens: -1, Files: []FileProfile{{Opens: math.MinInt64, Size: -1, RecordID: math.MaxUint64}}},
		{StartTime: math.NaN(), EndTime: math.Inf(-1), ReadBandwidthMBps: math.Inf(1), WriteBandwidthMBps: math.Copysign(0, -1)},
		{ReadSizeBuckets: []int64{}, WriteSizeBuckets: nil, FileSizeBuckets: []int64{0, -1, math.MaxInt64}},
	}
	for range 500 {
		cases = append(cases, randomProfile(r))
	}
	for i, p := range cases {
		got, want := p.Marshal(), marshalNested(p)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: Marshal wrote %d bytes, the nested encoder %d; first difference at %d",
				i, len(got), len(want), firstDiff(got, want))
		}
		if cap(got) != len(got) {
			t.Fatalf("case %d: Marshal returned %d bytes in capacity %d, want one buffer of the exact size", i, len(got), cap(got))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSizeVarintMatchesEncoding: sizeVarint agrees with the encoder at
// every length boundary.
func TestSizeVarintMatchesEncoding(t *testing.T) {
	for shift := range 64 {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			var e Encoder
			e.varint(v)
			if got := sizeVarint(v); got != len(e.Bytes()) {
				t.Fatalf("sizeVarint(%d) = %d, encoding has %d bytes", v, got, len(e.Bytes()))
			}
		}
	}
	if sizeVarint(math.MaxUint64) != 10 {
		t.Fatalf("sizeVarint(MaxUint64) = %d, want 10", sizeVarint(math.MaxUint64))
	}
}

// BenchmarkMarshal encodes a profile of 64,000 files, imagenet-profiled's
// session size; one buffer of the exact size is the only allocation.
func BenchmarkMarshal(b *testing.B) {
	p := &DarshanProfile{ReadSizeBuckets: make([]int64, 10), WriteSizeBuckets: make([]int64, 10), FileSizeBuckets: make([]int64, 10)}
	p.Files = make([]FileProfile, 64000)
	for i := range p.Files {
		p.Files[i] = FileProfile{
			RecordID: uint64(i+1) * 0x9E3779B97F4A7C15, Name: fmt.Sprintf("/lustre/imagenet/train/n%08d/n%08d_%d.JPEG", i/1300, i/1300, i),
			Opens: 1, Reads: 2, BytesRead: 110_000, ReadTime: 4e-4, Size: 110_000,
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		p.Marshal()
	}
}
