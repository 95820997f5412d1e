package proto

import (
	"bytes"
	"errors"
	"math"
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
