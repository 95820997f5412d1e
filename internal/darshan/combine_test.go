package darshan

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// incarnations builds two process incarnations of one rank: a dead
// process and its reborn successor, sharing POSIX file 1, STDIO file 9
// and DXT record 1. Records carry Rank 0, as if stamped by independently
// captured runs, so the combine's own rank stamp is visible.
func incarnations() (dead, reborn *Log) {
	p1 := PosixRecord{ID: 1}
	p1.Counters[POSIX_OPENS] = 2
	p1.Counters[POSIX_READS] = 5
	p1.Counters[POSIX_BYTES_READ] = 450
	p1.Counters[POSIX_MAX_BYTE_READ] = 999
	p1.Counters[POSIX_ACCESS1_ACCESS], p1.Counters[POSIX_ACCESS1_COUNT] = 100, 4
	p1.Counters[POSIX_ACCESS2_ACCESS], p1.Counters[POSIX_ACCESS2_COUNT] = 50, 1
	p1.FCounters[POSIX_F_READ_START_TIMESTAMP] = 1.0
	p1.FCounters[POSIX_F_READ_END_TIMESTAMP] = 2.0
	p1.FCounters[POSIX_F_READ_TIME] = 0.5
	p1.FCounters[POSIX_F_MAX_READ_TIME] = 0.375
	s9 := StdioRecord{ID: 9}
	s9.Counters[STDIO_WRITES] = 3
	s9.Counters[STDIO_BYTES_WRITTEN] = 300
	s9.Counters[STDIO_MAX_BYTE_WRITTEN] = 120
	s9.FCounters[STDIO_F_OPEN_START_TIMESTAMP] = 0.5
	s9.FCounters[STDIO_F_WRITE_TIME] = 0.25
	dead = &Log{
		JobEnd: 4,
		NProcs: 1,
		Posix:  []PosixRecord{p1},
		Stdio:  []StdioRecord{s9},
		DXT:    []DXTRecord{{ID: 1, ReadSegs: []Segment{{Offset: 0, Length: 100, Start: 1, End: 1.5}, {Offset: 100, Length: 100, Start: 1.5, End: 2}}, Dropped: 1}},
		Names:  map[uint64]string{1: "/pfs/a", 9: "/pfs/ckpt"},
	}

	q1 := PosixRecord{ID: 1}
	q1.Counters[POSIX_OPENS] = 1
	q1.Counters[POSIX_READS] = 7
	q1.Counters[POSIX_BYTES_READ] = 1100
	q1.Counters[POSIX_MAX_BYTE_READ] = 499
	q1.Counters[POSIX_ACCESS1_ACCESS], q1.Counters[POSIX_ACCESS1_COUNT] = 50, 4
	q1.Counters[POSIX_ACCESS2_ACCESS], q1.Counters[POSIX_ACCESS2_COUNT] = 300, 3
	q1.FCounters[POSIX_F_READ_START_TIMESTAMP] = 6.0
	q1.FCounters[POSIX_F_READ_END_TIMESTAMP] = 8.0
	q1.FCounters[POSIX_F_WRITE_START_TIMESTAMP] = 7.5
	q1.FCounters[POSIX_F_READ_TIME] = 0.25
	q1.FCounters[POSIX_F_MAX_READ_TIME] = 0.125
	q2 := PosixRecord{ID: 2}
	q2.Counters[POSIX_OPENS] = 1
	t9 := StdioRecord{ID: 9}
	t9.Counters[STDIO_WRITES] = 5
	t9.Counters[STDIO_BYTES_WRITTEN] = 500
	t9.Counters[STDIO_MAX_BYTE_WRITTEN] = 90
	t9.FCounters[STDIO_F_OPEN_START_TIMESTAMP] = 6.5
	t9.FCounters[STDIO_F_CLOSE_END_TIMESTAMP] = 9.0
	t9.FCounters[STDIO_F_WRITE_TIME] = 0.5
	reborn = &Log{
		JobEnd: 10,
		NProcs: 1,
		Posix:  []PosixRecord{q1, q2},
		Stdio:  []StdioRecord{t9},
		DXT: []DXTRecord{{
			ID:        1,
			ReadSegs:  []Segment{{Offset: 200, Length: 100, Start: 6, End: 6.5}},
			WriteSegs: []Segment{{Offset: 0, Length: 10, Start: 7.5, End: 7.75}},
			Dropped:   2,
		}},
		Names: map[uint64]string{1: "/pfs/a", 2: "/pfs/b", 9: "/pfs/ckpt"},
	}
	return dead, reborn
}

// TestCombineSnapshotsFoldsIncarnations folds two incarnations of rank 3
// and checks every counter kind, the access re-rank, STDIO, DXT
// concatenation and the rank stamp.
func TestCombineSnapshotsFoldsIncarnations(t *testing.T) {
	dead, reborn := incarnations()
	got := CombineSnapshots(3, dead, nil, reborn)

	if got.JobEnd != 10 {
		t.Errorf("job end = %v, want the later incarnation's 10", got.JobEnd)
	}
	if want := map[uint64]string{1: "/pfs/a", 2: "/pfs/b", 9: "/pfs/ckpt"}; !reflect.DeepEqual(got.Names, want) {
		t.Errorf("names = %v, want %v", got.Names, want)
	}
	if len(got.Posix) != 2 || got.Posix[0].ID != 1 || got.Posix[1].ID != 2 {
		t.Fatalf("posix records = %+v, want ids 1, 2 in first-appearance order", got.Posix)
	}
	for _, rec := range got.Posix {
		if rec.Rank != 3 {
			t.Errorf("posix record %d rank = %d, want 3", rec.ID, rec.Rank)
		}
	}

	p := &got.Posix[0]
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"OPENS (sum)", p.Counters[POSIX_OPENS], 3},
		{"READS (sum)", p.Counters[POSIX_READS], 12},
		{"BYTES_READ (sum)", p.Counters[POSIX_BYTES_READ], 1550},
		{"MAX_BYTE_READ (watermark)", p.Counters[POSIX_MAX_BYTE_READ], 999},
		// Combined table: 50 x 5, 100 x 4, 300 x 3.
		{"ACCESS1", p.Counters[POSIX_ACCESS1_ACCESS], 50},
		{"ACCESS1_COUNT", p.Counters[POSIX_ACCESS1_COUNT], 5},
		{"ACCESS2", p.Counters[POSIX_ACCESS2_ACCESS], 100},
		{"ACCESS2_COUNT", p.Counters[POSIX_ACCESS2_COUNT], 4},
		{"ACCESS3", p.Counters[POSIX_ACCESS3_ACCESS], 300},
		{"ACCESS3_COUNT", p.Counters[POSIX_ACCESS3_COUNT], 3},
		{"ACCESS4_COUNT", p.Counters[POSIX_ACCESS4_COUNT], 0},
	} {
		if c.got != c.want {
			t.Errorf("posix %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"READ_START (earliest)", p.FCounters[POSIX_F_READ_START_TIMESTAMP], 1.0},
		{"WRITE_START (earliest nonzero, one side 0)", p.FCounters[POSIX_F_WRITE_START_TIMESTAMP], 7.5},
		{"OPEN_START (never)", p.FCounters[POSIX_F_OPEN_START_TIMESTAMP], 0},
		{"READ_END (latest)", p.FCounters[POSIX_F_READ_END_TIMESTAMP], 8.0},
		{"READ_TIME (sum)", p.FCounters[POSIX_F_READ_TIME], 0.75},
		{"MAX_READ_TIME (max)", p.FCounters[POSIX_F_MAX_READ_TIME], 0.375},
	} {
		if c.got != c.want {
			t.Errorf("posix %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if len(got.Stdio) != 1 {
		t.Fatalf("stdio records = %d, want 1", len(got.Stdio))
	}
	s := &got.Stdio[0]
	if s.Rank != 3 {
		t.Errorf("stdio record rank = %d, want 3", s.Rank)
	}
	if s.Counters[STDIO_WRITES] != 8 || s.Counters[STDIO_BYTES_WRITTEN] != 800 || s.Counters[STDIO_MAX_BYTE_WRITTEN] != 120 {
		t.Errorf("stdio writes/bytes/max = %d/%d/%d, want 8/800/120",
			s.Counters[STDIO_WRITES], s.Counters[STDIO_BYTES_WRITTEN], s.Counters[STDIO_MAX_BYTE_WRITTEN])
	}
	if s.FCounters[STDIO_F_OPEN_START_TIMESTAMP] != 0.5 || s.FCounters[STDIO_F_CLOSE_END_TIMESTAMP] != 9.0 || s.FCounters[STDIO_F_WRITE_TIME] != 0.75 {
		t.Errorf("stdio open start/close end/write time = %v/%v/%v, want 0.5/9/0.75",
			s.FCounters[STDIO_F_OPEN_START_TIMESTAMP], s.FCounters[STDIO_F_CLOSE_END_TIMESTAMP], s.FCounters[STDIO_F_WRITE_TIME])
	}

	wantDXT := []DXTRecord{{
		ID:        1,
		ReadSegs:  append(append([]Segment(nil), dead.DXT[0].ReadSegs...), reborn.DXT[0].ReadSegs...),
		WriteSegs: reborn.DXT[0].WriteSegs,
		Dropped:   3,
	}}
	if !reflect.DeepEqual(got.DXT, wantDXT) {
		t.Errorf("dxt = %+v, want %+v", got.DXT, wantDXT)
	}
}

// TestCombineSnapshotsNilAndSingle: nil incarnations are skipped, no live
// incarnation gives nil, and a single live one is returned as is.
func TestCombineSnapshotsNilAndSingle(t *testing.T) {
	dead, reborn := incarnations()
	if got := CombineSnapshots(3); got != nil {
		t.Errorf("no snapshots combined to %+v, want nil", got)
	}
	if got := CombineSnapshots(3, nil, nil); got != nil {
		t.Errorf("nil snapshots combined to %+v, want nil", got)
	}
	if got := CombineSnapshots(3, nil, reborn, nil); got != reborn {
		t.Error("a single live snapshot is not returned as is")
	}
	if got, want := CombineSnapshots(3, nil, dead, nil, reborn, nil), CombineSnapshots(3, dead, reborn); !reflect.DeepEqual(got, want) {
		t.Error("nil snapshots change the combine")
	}
}

// TestFoldKeepsEmptyModulesNil: a module that none of the folded
// snapshots has records of stays nil through Merge and CombineSnapshots,
// as the log decoder leaves an empty block, so each fold DeepEquals its
// own decoded log.
func TestFoldKeepsEmptyModulesNil(t *testing.T) {
	for _, module := range []string{"stdio", "posix"} {
		strip := func(s *Log) *Log {
			if module == "stdio" {
				s.Stdio = nil
			} else {
				s.Posix = nil
			}
			return s
		}
		wantNil := func(what string, posix []PosixRecord, stdio []StdioRecord) {
			t.Helper()
			if (posix == nil) != (module == "posix") || (stdio == nil) != (module == "stdio") {
				t.Fatalf("no %s: %s has posix nil %v, stdio nil %v", module, what, posix == nil, stdio == nil)
			}
		}
		dead, reborn := incarnations()
		dead, reborn = strip(dead), strip(reborn)

		for _, snaps := range [][]*Log{{dead}, {dead, reborn}} {
			m := Merge(snaps)
			wantNil(fmt.Sprintf("merge of %d ranks", len(snaps)), m.Posix, m.Stdio)
			var buf bytes.Buffer
			if err := m.Write(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadLog(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Errorf("no %s: merge of %d ranks did not round-trip:\n got %+v\nwant %+v", module, len(snaps), got, m)
			}
		}

		c := CombineSnapshots(3, dead, reborn)
		wantNil("combine", c.Posix, c.Stdio)
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("no %s: combine did not round-trip:\n got %+v\nwant %+v", module, got, c)
		}
	}
}
