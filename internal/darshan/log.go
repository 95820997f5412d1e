package darshan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/deflate"
)

// Log file layout: an 8-byte magic + u32 version header in the clear,
// followed by one gzip stream holding a kind byte, the job record, the
// name table and the per-module record blocks (real Darshan also writes a
// header in the clear and libz-compressed regions behind it).
//
// Two kinds share the container:
//
//   - single (kind 0): one process's records, nprocs == 1, DXT stored
//     per file record as in DXT's posix module;
//   - merged (kind 1): the cross-rank reduction of a cluster run,
//     nprocs == rank count, records carry their owning rank or the
//     shared-record sentinel rank −1, and DXT is one flat rank-attributed
//     timeline in global start-time order.
//
// Every writer has a machine-checkable inverse: ReadLog(Write(x))
// reconstructs x exactly, and Write(ReadLog(b)) reproduces b byte for
// byte (the name table is written in ascending record-id order, so the
// encoding is canonical).
var logMagic = [8]byte{'D', 'A', 'R', 'S', 'H', 'A', 'N', 0}

// LogVersion is the format version written by this runtime. 321 added the
// merged-log kind (rank −1 shared records + rank-attributed DXT timeline).
const LogVersion uint32 = 321

// Log kinds, the first byte of the compressed stream.
const (
	logKindSingle byte = 0
	logKindMerged byte = 1
)

// Decoder sanity bounds: a corrupt count field must produce ErrBadLog,
// not a multi-gigabyte allocation. The record cap matches the runtime's
// default module record cap; segments and timeline entries get room for
// the biggest paper-scale traces.
const (
	maxLogNames    = 1 << 21
	maxLogRecords  = 1 << 20
	maxLogSegments = 1 << 24
	maxLogNProcs   = 1 << 20
	// logAllocChunk is the most elements the decoder allocates room for
	// on a count field's word alone; past it, slices grow only as
	// elements actually decode (appendDecoded), so a lying count field
	// hits EOF long before it can exhaust memory.
	logAllocChunk = 1 << 10
)

// appendDecoded extends s, the slice of a block whose count field
// declared n elements, by one zero element for the caller to decode the
// next element into in place. A full slice grows to the largest of n, n/2,
// n/4, ... (rounded up) within logAllocChunk elements or twice its length,
// whichever is more: a block of up to logAllocChunk elements is allocated
// once at its size, a larger honest block doubles its way up to capacity n
// exactly, allocating about 2n elements in all, and a false count keeps
// the slice within logAllocChunk elements or twice the elements that
// actually decoded. s must be nil or a slice appendDecoded returned: the
// spare capacity it extends into is then zero, as make left it.
func appendDecoded[T any](s []T, n int) []T {
	if len(s) == cap(s) {
		c := n
		for c > max(2*cap(s), logAllocChunk) {
			c = (c + 1) / 2
		}
		grown := make([]T, len(s), c)
		copy(grown, s)
		s = grown
	}
	return s[:len(s)+1]
}

// ErrBadLog reports a malformed or foreign log file.
var ErrBadLog = errors.New("darshan: bad log file")

// Log is a Darshan log: the record set of one process (a runtime export
// or snapshot, or the per-rank log of a cluster run) or, when Merged, the
// cross-rank reduction of many. It is both the in-memory form every
// producer returns and the serialized form: Write is the exact inverse of
// ReadLog for both kinds.
type Log struct {
	// JobEnd is seconds since job start at which the records were copied:
	// the export or snapshot instant of a single-process log, the latest
	// per-rank job end of a merged one. Log times are relative to job
	// start, so the job starts at 0.
	JobEnd float64
	// NProcs is 1 for a single-process log and the number of rank slots
	// merged for a merged one.
	NProcs int
	// Merged marks a cross-rank merged log: records may carry the shared
	// sentinel rank −1 and DXT lives in Timeline instead of DXT.
	Merged bool
	Names  map[uint64]string
	Posix  []PosixRecord
	Stdio  []StdioRecord
	// DXT holds per-file trace records (single logs only).
	DXT []DXTRecord
	// Timeline holds every rank's DXT segments in one globally ordered,
	// rank-attributed sequence (merged logs only).
	Timeline []MergedSegment
	// DroppedSegments sums DXT segments lost to per-record memory bounds
	// (merged logs only; single logs keep the count per DXT record).
	DroppedSegments int64
}

// logChunk is how many encoded bytes the encoder buffers before handing
// them to the compressor.
const logChunk = 64 << 10

// logEncoder appends typed little-endian fields to a reused buffer and
// hands the compressor whole chunks of it, with a sticky write error.
// Deflate's output is a function of the uncompressed byte stream alone,
// not of how it is split across Write calls, so the chunking never shows
// in the log bytes.
type logEncoder struct {
	zw  *deflate.Writer
	buf []byte
	err error
}

func (e *logEncoder) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *logEncoder) u16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *logEncoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *logEncoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *logEncoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *logEncoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *logEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// record encodes one POSIX or STDIO module record.
func (e *logEncoder) record(id uint64, rank int, counters []int64, fcounters []float64) {
	e.u64(id)
	e.i64(int64(rank))
	for _, v := range counters {
		e.i64(v)
	}
	for _, v := range fcounters {
		e.f64(v)
	}
	e.endRecord()
}

// segment encodes one DXT segment.
func (e *logEncoder) segment(s *Segment) {
	e.i64(s.Offset)
	e.i64(s.Length)
	e.f64(s.Start)
	e.f64(s.End)
	e.i32(int32(s.TID))
}

// endRecord hands the buffer to the compressor once a chunk is full.
func (e *logEncoder) endRecord() {
	if len(e.buf) >= logChunk {
		e.flush()
	}
}

func (e *logEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.zw.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// checkJobRecord rejects a job record the log cannot carry: an end time
// that is not a finite, non-negative number of seconds, or a process count
// outside the log kind's range (1 to maxLogNProcs ranks for a merged log,
// exactly 1 for a single-process log).
func checkJobRecord(merged bool, jobEnd float64, nprocs int64) error {
	if !finiteTime(jobEnd) {
		return fmt.Errorf("%w: job end time %v", ErrBadLog, jobEnd)
	}
	if nprocs < 1 || nprocs > maxLogNProcs || !merged && nprocs != 1 {
		return fmt.Errorf("%w: nprocs %d out of range (merged %v)", ErrBadLog, nprocs, merged)
	}
	return nil
}

// Write serializes the log. The encoding is canonical: the name table is
// written in ascending record-id order and record blocks in slice order,
// so writing a freshly parsed log reproduces the input bytes exactly. A
// log ReadLog would reject is an ErrBadLog error before any byte is
// written.
func (l *Log) Write(w io.Writer) error {
	if err := checkJobRecord(l.Merged, l.JobEnd, int64(l.NProcs)); err != nil {
		return err
	}
	// Name table ids, ascending for a canonical byte stream.
	ids := make([]uint64, 0, len(l.Names))
	for id, name := range l.Names {
		if len(name) > math.MaxUint16 {
			return fmt.Errorf("%w: a record name is longer than %d bytes", ErrBadLog, math.MaxUint16)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var header [len(logMagic) + 4]byte
	copy(header[:], logMagic[:])
	binary.LittleEndian.PutUint32(header[len(logMagic):], LogVersion)
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	// Room for a chunk plus the record that crosses its boundary.
	e := &logEncoder{zw: deflate.NewWriter(w), buf: make([]byte, 0, 2*logChunk)}

	kind := logKindSingle
	if l.Merged {
		kind = logKindMerged
	}
	e.u8(kind)

	// Job record.
	e.f64(l.JobEnd)
	e.i64(int64(l.NProcs))

	// Name table.
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		name := l.Names[id]
		e.u64(id)
		e.u16(uint16(len(name)))
		e.buf = append(e.buf, name...)
		e.endRecord()
	}

	// POSIX module block.
	e.u32(uint32(len(l.Posix)))
	for i := range l.Posix {
		r := &l.Posix[i]
		e.record(r.ID, r.Rank, r.Counters[:], r.FCounters[:])
	}

	// STDIO module block.
	e.u32(uint32(len(l.Stdio)))
	for i := range l.Stdio {
		r := &l.Stdio[i]
		e.record(r.ID, r.Rank, r.Counters[:], r.FCounters[:])
	}

	if l.Merged {
		// Merged DXT: one flat rank-attributed timeline in stored order
		// (globally sorted by start time by the merger).
		e.i64(l.DroppedSegments)
		e.u32(uint32(len(l.Timeline)))
		for i := range l.Timeline {
			s := &l.Timeline[i]
			e.u64(s.ID)
			e.i32(int32(s.Rank))
			var write byte
			if s.Write {
				write = 1
			}
			e.u8(write)
			e.segment(&s.Segment)
			e.endRecord()
		}
	} else {
		// Single-process DXT: per-file records.
		e.u32(uint32(len(l.DXT)))
		for i := range l.DXT {
			r := &l.DXT[i]
			e.u64(r.ID)
			e.i64(r.Dropped)
			for _, segs := range [2][]Segment{r.ReadSegs, r.WriteSegs} {
				e.u32(uint32(len(segs)))
				for j := range segs {
					e.segment(&segs[j])
					e.endRecord()
				}
			}
		}
	}
	e.flush()
	// Close also releases the compressor's workers after a write error,
	// which is then the error it returns.
	return e.zw.Close()
}

// Sizes of the fixed-size segments in the compressed stream, in bytes
// (module records size themselves from their counter arrays).
const (
	// offset, length, start, end, thread
	segmentBytes = 8 + 8 + 8 + 8 + 4
	// id, rank, direction, segment
	timelineSegmentBytes = 8 + 4 + 1 + segmentBytes
)

// logDecoder reads the decompressed stream, one whole record at a time
// into a scratch buffer, and then hands out that record's little-endian
// fields in order. The read error is sticky.
type logDecoder struct {
	r   *deflate.Reader
	buf []byte // the record last read by next
	off int    // field cursor into buf
	err error
}

// next reads the next n bytes of the stream into buf and rewinds the
// field cursor.
func (d *logDecoder) next(n int) bool {
	if d.err != nil {
		return false
	}
	if n > cap(d.buf) {
		d.buf = make([]byte, n)
	}
	d.buf, d.off = d.buf[:n], 0
	_, d.err = io.ReadFull(d.r, d.buf)
	return d.err == nil
}

func (d *logDecoder) u8() byte {
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *logDecoder) u16() uint16 {
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *logDecoder) u32() uint32 {
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *logDecoder) u64() uint64 {
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *logDecoder) i32() int32   { return int32(d.u32()) }
func (d *logDecoder) i64() int64   { return int64(d.u64()) }
func (d *logDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *logDecoder) fail(format string, args ...any) error {
	if d.err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadLog, fmt.Sprintf(format, args...), d.err)
	}
	return fmt.Errorf("%w: %s", ErrBadLog, fmt.Sprintf(format, args...))
}

// count reads a u32 element count and validates it against a bound.
func (d *logDecoder) count(what string, max uint32) (int, error) {
	if !d.next(4) {
		return 0, d.fail("%s count", what)
	}
	n := d.u32()
	if n > max {
		return 0, fmt.Errorf("%w: %s count %d exceeds bound %d", ErrBadLog, what, n, max)
	}
	return int(n), nil
}

// finiteTime reports whether v is a usable log timestamp: finite and
// non-negative (all times are seconds since job start).
func finiteTime(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// IsLogData reports whether b begins with the Darshan log magic — the
// sniff viewers use to tell a binary log from other trace formats.
func IsLogData(b []byte) bool {
	return len(b) >= len(logMagic) && bytes.Equal(b[:len(logMagic)], logMagic[:])
}

// ReadLog decodes a log written by (*Log).Write — either kind — in one
// pass, checking its structure as it goes: magic, version, kind, rank
// ranges, count bounds, time sanity, and that the stream ends with the
// final block. Every block element is decoded in place into a slice grown
// by appendDecoded, so a corrupt count field errors at the element it
// lies about, never as a huge up-front allocation. Malformed input yields
// an ErrBadLog-wrapped error; it never panics. The stream inflates on a
// worker goroutine while this one decodes records; the worker has stopped
// when ReadLog returns.
func ReadLog(r io.Reader) (*Log, error) {
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
	zr, err := deflate.NewPipelinedReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	defer zr.Close()
	d := &logDecoder{r: zr}
	log := &Log{}

	if !d.next(1) {
		return nil, d.fail("kind")
	}
	switch kind := d.u8(); kind {
	case logKindSingle:
	case logKindMerged:
		log.Merged = true
	default:
		return nil, fmt.Errorf("%w: unknown log kind %d", ErrBadLog, kind)
	}

	// Job record.
	if !d.next(16) {
		return nil, d.fail("job record")
	}
	jobEnd, nprocs := d.f64(), d.i64()
	if err := checkJobRecord(log.Merged, jobEnd, nprocs); err != nil {
		return nil, err
	}
	log.JobEnd, log.NProcs = jobEnd, int(nprocs)

	// Name table. The entries are collected first and the map made at
	// their count, so it is not rehashed as it grows.
	nNames, err := d.count("name table", maxLogNames)
	if err != nil {
		return nil, err
	}
	type entry struct {
		id   uint64
		name string
	}
	var names []entry
	for i := range nNames {
		names = appendDecoded(names, nNames)
		if !d.next(10) {
			return nil, d.fail("name table entry %d", i)
		}
		id, ln := d.u64(), d.u16()
		if !d.next(int(ln)) {
			return nil, d.fail("name table entry %d", i)
		}
		names[i] = entry{id, string(d.buf)}
	}
	log.Names = make(map[uint64]string, len(names))
	for _, e := range names {
		log.Names[e.id] = e.name
	}

	if log.Posix, err = readModule(d, log, "posix", posixFields); err != nil {
		return nil, err
	}
	if log.Stdio, err = readModule(d, log, "stdio", stdioFields); err != nil {
		return nil, err
	}

	if log.Merged {
		// Merged DXT: the drop counter, then one flat rank-attributed
		// timeline.
		if !d.next(8) {
			return nil, d.fail("timeline header")
		}
		if log.DroppedSegments = d.i64(); log.DroppedSegments < 0 {
			return nil, fmt.Errorf("%w: negative timeline drop count", ErrBadLog)
		}
		n, err := d.count("timeline", maxLogSegments)
		if err != nil {
			return nil, err
		}
		for i := range n {
			log.Timeline = appendDecoded(log.Timeline, n)
			ms := &log.Timeline[i]
			if !d.next(timelineSegmentBytes) {
				return nil, d.fail("timeline segment %d", i)
			}
			ms.ID = d.u64()
			rank, write := d.i32(), d.u8()
			// Timeline segments are always owned by a concrete rank: the
			// shared sentinel never appears here.
			if rank < 0 || int64(rank) >= nprocs {
				return nil, fmt.Errorf("%w: timeline segment %d: rank %d out of range (nprocs %d)", ErrBadLog, i, rank, nprocs)
			}
			if write > 1 {
				return nil, fmt.Errorf("%w: timeline segment %d: direction flag %d", ErrBadLog, i, write)
			}
			ms.Rank, ms.Write = int(rank), write == 1
			if err := readSegment(d, &ms.Segment, "timeline segment", i); err != nil {
				return nil, err
			}
		}
	} else {
		// Single-process DXT: per-file records.
		n, err := d.count("dxt block", maxLogRecords)
		if err != nil {
			return nil, err
		}
		for i := range n {
			log.DXT = appendDecoded(log.DXT, n)
			rec := &log.DXT[i]
			if !d.next(16) {
				return nil, d.fail("dxt record %d", i)
			}
			if rec.ID, rec.Dropped = d.u64(), d.i64(); rec.Dropped < 0 {
				return nil, fmt.Errorf("%w: dxt record %d: negative drop count", ErrBadLog, i)
			}
			for dir, segs := range [2]*[]Segment{&rec.ReadSegs, &rec.WriteSegs} {
				what := [2]string{"dxt read segment", "dxt write segment"}[dir]
				nSegs, err := d.count(what, maxLogSegments)
				if err != nil {
					return nil, err
				}
				for j := range nSegs {
					*segs = appendDecoded(*segs, nSegs)
					if !d.next(segmentBytes) {
						return nil, d.fail("%s %d", what, j)
					}
					if err := readSegment(d, &(*segs)[j], what, j); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Trailing bytes mean a corrupt count field upstream.
	var trailer [1]byte
	if n, err := zr.Read(trailer[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after final block", ErrBadLog)
	}
	return log, nil
}

// posixFields and stdioFields return the fields readModule decodes a
// record into: its id, its rank and its counter arrays.
func posixFields(r *PosixRecord) (*uint64, *int, []int64, []float64) {
	return &r.ID, &r.Rank, r.Counters[:], r.FCounters[:]
}

func stdioFields(r *StdioRecord) (*uint64, *int, []int64, []float64) {
	return &r.ID, &r.Rank, r.Counters[:], r.FCounters[:]
}

// readModule decodes a POSIX or STDIO block of log: a count, then that
// many records, each an id, a rank and the counter arrays, decoded in
// place into the fields that fields returns.
func readModule[T any](d *logDecoder, log *Log, what string, fields func(*T) (*uint64, *int, []int64, []float64)) ([]T, error) {
	n, err := d.count(what+" block", maxLogRecords)
	if err != nil {
		return nil, err
	}
	var recs []T
	for i := range n {
		recs = appendDecoded(recs, n)
		id, rank, counters, fcounters := fields(&recs[i])
		if !d.next(8 + 8 + 8*len(counters) + 8*len(fcounters)) {
			return nil, d.fail("%s record %d", what, i)
		}
		*id = d.u64()
		r := d.i64()
		for j := range counters {
			counters[j] = d.i64()
		}
		for j := range fcounters {
			fcounters[j] = d.f64()
		}
		// Single logs carry plain process ranks, merged logs also the
		// shared sentinel.
		valid := r >= 0
		if log.Merged {
			valid = r >= MergedRank && r < int64(log.NProcs)
		}
		if !valid {
			return nil, fmt.Errorf("%w: %s record %d: rank %d out of range (nprocs %d)", ErrBadLog, what, i, r, log.NProcs)
		}
		*rank = int(r)
	}
	return recs, nil
}

// readSegment decodes and validates one DXT segment from the decoder's
// current record.
func readSegment(d *logDecoder, s *Segment, what string, i int) error {
	s.Offset, s.Length, s.Start, s.End = d.i64(), d.i64(), d.f64(), d.f64()
	tid := d.i32()
	if s.Offset < 0 || s.Length < 0 || s.Length > math.MaxInt64-s.Offset || tid < 0 ||
		!finiteTime(s.Start) || !finiteTime(s.End) || s.End < s.Start {
		return fmt.Errorf("%w: %s %d: invalid segment geometry", ErrBadLog, what, i)
	}
	s.TID = int(tid)
	return nil
}

// Snapshot and MergedLog are the former names of Log.
//
// Deprecated: removed with the next bench PR.
type (
	Snapshot  = Log
	MergedLog = Log
)

// WriteMergedLog is (*Log).Write.
//
// Deprecated: removed with the next bench PR.
func WriteMergedLog(w io.Writer, m *Log) error { return m.Write(w) }

// ReadMergedLog is ReadLog restricted to merged-kind logs.
//
// Deprecated: removed with the next bench PR.
func ReadMergedLog(r io.Reader) (*Log, error) {
	log, err := ReadLog(r)
	if err == nil && !log.Merged {
		return nil, fmt.Errorf("%w: not a merged log", ErrBadLog)
	}
	return log, err
}
