package darshan

import (
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

// appendDecoded appends v, one decoded element of a block whose count
// field declared n elements, to s. A full slice grows to the largest of
// n, n/2, n/4, ... (rounded up) within logAllocChunk elements or twice its
// length, whichever is more: a block of up to logAllocChunk elements is
// allocated once at its size, a larger honest block doubles its way up to
// capacity n exactly, allocating about 2n elements in all, and a false
// count keeps the slice within logAllocChunk elements or twice the
// elements that actually decoded.
func appendDecoded[T any](s []T, v T, n int) []T {
	if len(s) == cap(s) {
		c := n
		for c > max(2*cap(s), logAllocChunk) {
			c = (c + 1) / 2
		}
		grown := make([]T, len(s), c)
		copy(grown, s)
		s = grown
	}
	return append(s, v)
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
	// Faults is the transient-fault/retry tally behind the records
	// (faults.go), stamped by the caller after export and summed by the
	// fold. It is a side channel, not written: decoded logs carry zero
	// Faults.
	Faults FaultCounters
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

// record decodes the fields of one POSIX or STDIO module record.
func (d *logDecoder) record(id *uint64, counters []int64, fcounters []float64) (rank int64) {
	*id = d.u64()
	rank = d.i64()
	for i := range counters {
		counters[i] = d.i64()
	}
	for i := range fcounters {
		fcounters[i] = d.f64()
	}
	return rank
}

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

// ReadLog decodes a log written by (*Log).Write — either kind. It is a
// thin materializing loop over LogReader, so all structural validation
// (magic, version, kind, rank ranges, count bounds, time sanity) happens
// streamingly: a corrupt count field errors at the record it lies about,
// never as a huge up-front allocation. Malformed input yields an
// ErrBadLog-wrapped error; it never panics. On more than one core the
// stream inflates on a worker goroutine while this one decodes records;
// the worker has stopped when ReadLog returns.
func ReadLog(r io.Reader) (*Log, error) {
	lr, err := newLogReader(r, deflate.NewPipelinedReader)
	if err != nil {
		return nil, err
	}
	defer lr.zr.Close()
	log := &Log{
		JobEnd: lr.jobEnd,
		NProcs: lr.NProcs(),
		Merged: lr.merged,
		Names:  lr.names,
	}
	for {
		rec, ok, err := lr.NextPosix()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		log.Posix = appendDecoded(log.Posix, rec, lr.blockCount())
	}
	for {
		rec, ok, err := lr.NextStdio()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		log.Stdio = appendDecoded(log.Stdio, rec, lr.blockCount())
	}
	if log.Merged {
		for {
			ms, ok, err := lr.NextSegment()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			log.Timeline = appendDecoded(log.Timeline, ms, lr.blockCount())
		}
		log.DroppedSegments = lr.DroppedSegments()
	} else {
		for {
			rec, ok, err := lr.NextDXT()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			log.DXT = appendDecoded(log.DXT, rec, lr.blockCount())
		}
	}
	if err := lr.Finish(); err != nil {
		return nil, err
	}
	return log, nil
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
