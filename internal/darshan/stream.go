package darshan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/deflate"
)

// IsLogData reports whether b begins with the Darshan log magic — the
// sniff viewers use to tell a binary log from other trace formats.
func IsLogData(b []byte) bool {
	return len(b) >= len(logMagic) && bytes.Equal(b[:len(logMagic)], logMagic[:])
}

// logSection orders the record blocks inside the compressed stream.
type logSection int

const (
	secPosix logSection = iota
	secStdio
	secTrace // per-file DXT records (single) or the merged timeline
	secDone
)

// LogReader decodes a Darshan log incrementally: the header, job record
// and name table are read eagerly (they are small and every consumer
// needs them to resolve record ids), then each Next* call decodes exactly
// one record from the corresponding block. Nothing else is materialized,
// so a viewer can walk a multi-million-segment timeline in constant
// memory, and a corrupt count field fails at the record it lies about
// instead of provoking a huge up-front allocation.
//
// Blocks are stored in posix, stdio, trace order. Calling a later block's
// Next* drains (decoding and discarding, validation included) any earlier
// unconsumed blocks. Finish drains the rest of the log and verifies the
// stream ends exactly at the final block — the same structural guarantee
// ReadLog gives, which is itself built on this reader.
type LogReader struct {
	zr *deflate.Reader
	d  *logDecoder

	merged  bool
	jobEnd  float64
	nprocs  int64
	names   map[uint64]string
	dropped int64

	section   logSection
	opened    bool // current section's count header consumed
	remaining int  // records left in the current section
	idx       int  // records consumed from the current section (errors)
	finished  bool
}

// NewLogReader validates the clear-text header, job record and name table
// and positions the reader before the POSIX block. It inflates on the
// caller's goroutine, as records are asked for.
func NewLogReader(r io.Reader) (*LogReader, error) {
	return newLogReader(r, deflate.NewReader)
}

// newLogReader is NewLogReader with the gzip reader open makes. The gzip
// reader is closed again when it fails.
func newLogReader(r io.Reader, open func(io.Reader) (*deflate.Reader, error)) (_ *LogReader, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	if magic != logMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadLog)
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	if version != LogVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadLog, version, LogVersion)
	}
	zr, err := open(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	defer func() {
		if err != nil {
			zr.Close()
		}
	}()
	lr := &LogReader{zr: zr, d: &logDecoder{r: zr}}
	d := lr.d

	if !d.next(1) {
		return nil, d.fail("kind")
	}
	switch kind := d.u8(); kind {
	case logKindSingle:
	case logKindMerged:
		lr.merged = true
	default:
		return nil, fmt.Errorf("%w: unknown log kind %d", ErrBadLog, kind)
	}

	// Job record.
	if !d.next(16) {
		return nil, d.fail("job record")
	}
	lr.jobEnd, lr.nprocs = d.f64(), d.i64()
	if err := checkJobRecord(lr.merged, lr.jobEnd, lr.nprocs); err != nil {
		return nil, err
	}

	// Name table.
	nNames, err := d.count("name table", maxLogNames)
	if err != nil {
		return nil, err
	}
	// The entries are collected first and the map made at their count, so
	// it is not rehashed as it grows.
	type entry struct {
		id   uint64
		name string
	}
	var names []entry
	for i := 0; i < nNames; i++ {
		if !d.next(10) {
			return nil, d.fail("name table entry %d", i)
		}
		id, ln := d.u64(), d.u16()
		if !d.next(int(ln)) {
			return nil, d.fail("name table entry %d", i)
		}
		names = appendDecoded(names, entry{id, string(d.buf)}, nNames)
	}
	lr.names = make(map[uint64]string, len(names))
	for _, e := range names {
		lr.names[e.id] = e.name
	}
	return lr, nil
}

// Merged reports whether this is a merged-kind (cross-rank) log.
func (lr *LogReader) Merged() bool { return lr.merged }

// JobEnd returns the job end time in seconds since job start.
func (lr *LogReader) JobEnd() float64 { return lr.jobEnd }

// NProcs returns the process count (1 for single logs).
func (lr *LogReader) NProcs() int { return int(lr.nprocs) }

// DroppedSegments returns the merged timeline's drop counter. It is zero
// until the timeline section has been reached (first NextSegment or
// Finish).
func (lr *LogReader) DroppedSegments() int64 { return lr.dropped }

// validRank checks a module record's rank field: single logs carry plain
// process ranks, merged logs additionally allow the shared sentinel.
func (lr *LogReader) validRank(rank int64) bool {
	if lr.merged {
		return rank >= MergedRank && rank < lr.nprocs
	}
	return rank >= 0
}

// open drains earlier sections and consumes the count header of s.
func (lr *LogReader) open(s logSection) error {
	if lr.finished {
		return fmt.Errorf("%w: read past end of log", ErrBadLog)
	}
	for lr.section < s {
		if err := lr.skipSection(); err != nil {
			return err
		}
	}
	if lr.section != s || lr.opened {
		return nil
	}
	var n int
	var err error
	switch s {
	case secPosix:
		n, err = lr.d.count("posix block", maxLogRecords)
	case secStdio:
		n, err = lr.d.count("stdio block", maxLogRecords)
	case secTrace:
		if lr.merged {
			if !lr.d.next(8) {
				return lr.d.fail("timeline header")
			}
			lr.dropped = lr.d.i64()
			if lr.dropped < 0 {
				return fmt.Errorf("%w: negative timeline drop count", ErrBadLog)
			}
			n, err = lr.d.count("timeline", maxLogSegments)
		} else {
			n, err = lr.d.count("dxt block", maxLogRecords)
		}
	}
	if err != nil {
		return err
	}
	lr.remaining = n
	lr.idx = 0
	lr.opened = true
	return nil
}

// blockCount is the element count the current block's header declared.
func (lr *LogReader) blockCount() int { return lr.idx + lr.remaining }

// closeSection advances past an exhausted section.
func (lr *LogReader) closeSection() {
	lr.section++
	lr.opened = false
}

// skipSection decodes and discards the rest of the current section,
// validating every record it skips.
func (lr *LogReader) skipSection() error {
	for {
		var ok bool
		var err error
		switch lr.section {
		case secPosix:
			_, ok, err = lr.NextPosix()
		case secStdio:
			_, ok, err = lr.NextStdio()
		case secTrace:
			if lr.merged {
				_, ok, err = lr.NextSegment()
			} else {
				_, ok, err = lr.NextDXT()
			}
		default:
			return nil
		}
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// NextPosix decodes the next POSIX record. ok is false once the block is
// exhausted (or already consumed by a later block's Next*).
func (lr *LogReader) NextPosix() (rec PosixRecord, ok bool, err error) {
	ok, err = lr.nextRecord(secPosix, "posix", &rec.ID, &rec.Rank, rec.Counters[:], rec.FCounters[:])
	return rec, ok, err
}

// NextStdio decodes the next STDIO record, draining any unread POSIX
// records first.
func (lr *LogReader) NextStdio() (rec StdioRecord, ok bool, err error) {
	ok, err = lr.nextRecord(secStdio, "stdio", &rec.ID, &rec.Rank, rec.Counters[:], rec.FCounters[:])
	return rec, ok, err
}

// nextRecord decodes the next module record of block s into the given
// fields. The record is an id, a rank and the counter arrays, so its
// size follows from the counter slices.
func (lr *LogReader) nextRecord(s logSection, what string, id *uint64, rank *int, counters []int64, fcounters []float64) (bool, error) {
	if lr.section > s {
		return false, nil
	}
	if err := lr.open(s); err != nil {
		return false, err
	}
	if lr.remaining == 0 {
		lr.closeSection()
		return false, nil
	}
	if !lr.d.next(8 + 8 + 8*len(counters) + 8*len(fcounters)) {
		return false, lr.d.fail("%s record %d", what, lr.idx)
	}
	r := lr.d.record(id, counters, fcounters)
	if !lr.validRank(r) {
		return false, fmt.Errorf("%w: %s record %d: rank %d out of range (nprocs %d)", ErrBadLog, what, lr.idx, r, lr.nprocs)
	}
	*rank = int(r)
	lr.remaining--
	lr.idx++
	return true, nil
}

// NextDXT decodes the next per-file DXT record of a single-process log
// (one record's segments are materialized at a time, bounded by the
// per-record segment cap).
func (lr *LogReader) NextDXT() (rec DXTRecord, ok bool, err error) {
	if lr.merged {
		return rec, false, fmt.Errorf("%w: merged log carries a timeline, not DXT records", ErrBadLog)
	}
	if lr.section > secTrace {
		return rec, false, nil
	}
	if err := lr.open(secTrace); err != nil {
		return rec, false, err
	}
	if lr.remaining == 0 {
		lr.closeSection()
		return rec, false, nil
	}
	if !lr.d.next(16) {
		return rec, false, lr.d.fail("dxt record %d", lr.idx)
	}
	rec.ID, rec.Dropped = lr.d.u64(), lr.d.i64()
	if rec.Dropped < 0 {
		return rec, false, fmt.Errorf("%w: dxt record %d: negative drop count", ErrBadLog, lr.idx)
	}
	for dir, out := range [2]*[]Segment{&rec.ReadSegs, &rec.WriteSegs} {
		what := [2]string{"dxt read segment", "dxt write segment"}[dir]
		nSegs, err := lr.d.count(what, maxLogSegments)
		if err != nil {
			return rec, false, err
		}
		for j := 0; j < nSegs; j++ {
			var s Segment
			if !lr.d.next(segmentBytes) {
				return rec, false, lr.d.fail("%s %d", what, j)
			}
			if err := readSegment(lr.d, &s, what, j); err != nil {
				return rec, false, err
			}
			*out = appendDecoded(*out, s, nSegs)
		}
	}
	lr.remaining--
	lr.idx++
	return rec, true, nil
}

// NextSegment decodes the next timeline segment of a merged log (global
// start-time order, rank-attributed).
func (lr *LogReader) NextSegment() (ms MergedSegment, ok bool, err error) {
	if !lr.merged {
		return ms, false, fmt.Errorf("%w: single-process log carries DXT records, not a timeline", ErrBadLog)
	}
	if lr.section > secTrace {
		return ms, false, nil
	}
	if err := lr.open(secTrace); err != nil {
		return ms, false, err
	}
	if lr.remaining == 0 {
		lr.closeSection()
		return ms, false, nil
	}
	if !lr.d.next(timelineSegmentBytes) {
		return ms, false, lr.d.fail("timeline segment %d", lr.idx)
	}
	ms.ID = lr.d.u64()
	rank, write := lr.d.i32(), lr.d.u8()
	// Timeline segments are always owned by a concrete rank: the shared
	// sentinel never appears here.
	if rank < 0 || int64(rank) >= lr.nprocs {
		return ms, false, fmt.Errorf("%w: timeline segment %d: rank %d out of range (nprocs %d)", ErrBadLog, lr.idx, rank, lr.nprocs)
	}
	if write > 1 {
		return ms, false, fmt.Errorf("%w: timeline segment %d: direction flag %d", ErrBadLog, lr.idx, write)
	}
	ms.Rank = int(rank)
	ms.Write = write == 1
	if err := readSegment(lr.d, &ms.Segment, "timeline segment", lr.idx); err != nil {
		return ms, false, err
	}
	lr.remaining--
	lr.idx++
	return ms, true, nil
}

// Finish drains any unconsumed blocks (validating them) and verifies the
// compressed stream ends exactly after the final block, then closes the
// decompressor. Trailing bytes mean a corrupt count field upstream.
func (lr *LogReader) Finish() error {
	if lr.finished {
		return nil
	}
	for lr.section < secDone {
		if err := lr.skipSection(); err != nil {
			return err
		}
	}
	var trailer [1]byte
	if n, err := lr.d.r.Read(trailer[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("%w: trailing data after final block", ErrBadLog)
	}
	lr.finished = true
	return lr.zr.Close()
}
