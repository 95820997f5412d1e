package darshan

import (
	"repro/internal/libc"
	"repro/internal/sim"
)

// accessEntry is one (size, count) pair of a record's access-size table.
type accessEntry struct {
	size  int64
	count int64
}

// accessInlineCap is the number of distinct access sizes tracked without a
// map. Darshan reports the top four (ACCESS1..4) and most files see at
// most a handful of distinct sizes (a full-file read plus the EOF-probing
// zero read), so the common case never hashes.
const accessInlineCap = 4

// PosixRecord is one file's POSIX-module record: the counter arrays that
// darshan-parser reports, all a log carries.
type PosixRecord struct {
	ID        uint64
	Rank      int // 0 for the paper's non-MPI runtime; the owning rank in cluster runs; -1 once merged across ranks
	Counters  [PosixNumCounters]int64
	FCounters [PosixNumFCounters]float64
}

// accessTable is the access-size table Darshan keeps per file at runtime,
// the source of the ACCESS1..4 counters. The first accessInlineCap
// distinct sizes are counted in the inline array; the overflow map is only
// allocated once a file exceeds that, so the per-operation bump is
// zero-alloc and hash-free for typical files. Every inline entry in use
// has a count of at least one, so the first zero count ends them.
type accessTable struct {
	overflow map[int64]int64
	inline   [accessInlineCap]accessEntry
}

// bump counts count accesses of the given size: one per operation at
// runtime, a whole ACCESS1..4 entry when merging records. count must be
// positive.
func (a *accessTable) bump(size, count int64) {
	for i := range a.inline {
		e := &a.inline[i]
		if e.count == 0 {
			*e = accessEntry{size: size, count: count}
			return
		}
		if e.size == size {
			e.count += count
			return
		}
	}
	if a.overflow == nil {
		a.overflow = make(map[int64]int64)
	}
	a.overflow[size] += count
}

// posixLive is the POSIX module's runtime state for one file: its path,
// its DXT record (nil until its first traced segment), the access-size
// table and the last byte read (the state behind Darshan's
// sequential/consecutive classification), and the record a log carries.
// The pointer fields lead, so the GC scans a short prefix, and the struct
// stays within the 576-byte size class.
type posixLive struct {
	path         string
	dxt          *DXTRecord
	access       accessTable
	lastByteRead int64
	PosixRecord
}

// PosixModule instruments the POSIX I/O functions.
type PosixModule struct {
	rt      *Runtime
	records map[uint64]*posixLive
	order   []*posixLive // records in first-seen order
	// fds maps each open descriptor to its file's record; a nil record
	// means the file is open but beyond the record cap.
	fds       map[int]*posixLive
	Untracked int64 // files beyond the record cap
}

func newPosixModule(rt *Runtime) *PosixModule {
	return &PosixModule{
		rt:      rt,
		records: make(map[uint64]*posixLive),
		fds:     make(map[int]*posixLive),
	}
}

// RecordCount returns the number of tracked files.
func (m *PosixModule) RecordCount() int { return len(m.records) }

func (m *PosixModule) copyRecords() []PosixRecord {
	// nil when empty: snapshots and decoded logs agree exactly (the log
	// decoder leaves absent blocks nil).
	if len(m.order) == 0 {
		return nil
	}
	out := make([]PosixRecord, 0, len(m.order))
	for _, live := range m.order {
		out = append(out, live.PosixRecord) // value copy: counter arrays are copied
		live.access.finalize(&out[len(out)-1])
	}
	return out
}

// recordFor finds or creates the record for path, honouring the module
// memory cap.
func (m *PosixModule) recordFor(t *sim.Thread, path string) *posixLive {
	id := RecordID(path)
	if rec, ok := m.records[id]; ok {
		return rec
	}
	if len(m.records) >= m.rt.cfg.MaxRecordsPerModule {
		m.Untracked++
		return nil
	}
	m.rt.chargeNewRecord(t)
	rec := &posixLive{path: path, PosixRecord: PosixRecord{ID: id, Rank: m.rt.rank}}
	m.records[id] = rec
	m.order = append(m.order, rec)
	return rec
}

// setFirst sets a start timestamp only on first occurrence, Darshan's
// convention for *_START_TIMESTAMP counters.
func setFirst(f *float64, v float64) {
	if *f == 0 {
		*f = v
	}
}

// recordOpen applies open semantics to rec.
func (m *PosixModule) recordOpen(rec *posixLive, start, end float64) {
	rec.Counters[POSIX_OPENS]++
	setFirst(&rec.FCounters[POSIX_F_OPEN_START_TIMESTAMP], start)
	rec.FCounters[POSIX_F_OPEN_END_TIMESTAMP] = end
	rec.FCounters[POSIX_F_META_TIME] += end - start
}

// recordRead applies Darshan's read semantics: size is the *returned* byte
// count, so TensorFlow's EOF-probing zero reads land in the 0–100 bucket
// and count as consecutive — the signature behaviour of paper Figs. 7a/8.
func (m *PosixModule) recordRead(t *sim.Thread, rec *posixLive, offset, size int64, start, end float64) {
	rec.Counters[POSIX_READS]++
	rec.Counters[readSizeBucket(size)]++
	rec.access.bump(size, 1)
	// The first read compares against Darshan's initial last byte, 0.
	if offset > rec.lastByteRead {
		rec.Counters[POSIX_SEQ_READS]++
	}
	if offset == rec.lastByteRead+1 {
		rec.Counters[POSIX_CONSEC_READS]++
	}
	rec.lastByteRead = offset + size - 1
	rec.Counters[POSIX_BYTES_READ] += size
	rec.Counters[POSIX_MAX_BYTE_READ] = max(rec.Counters[POSIX_MAX_BYTE_READ], offset+size-1)
	setFirst(&rec.FCounters[POSIX_F_READ_START_TIMESTAMP], start)
	rec.FCounters[POSIX_F_READ_END_TIMESTAMP] = end
	rec.FCounters[POSIX_F_READ_TIME] += end - start
	rec.FCounters[POSIX_F_MAX_READ_TIME] = max(rec.FCounters[POSIX_F_MAX_READ_TIME], end-start)
	m.rt.DXT.add(t, &rec.dxt, rec.ID, false, offset, size, start, end)
}

// wrapOpen builds the instrumented open(2).
func (m *PosixModule) wrapOpen(real libc.OpenFunc) libc.OpenFunc {
	return func(t *sim.Thread, path string, flags int) (int, error) {
		start := m.rt.rel(t.Now())
		fd, err := real(t, path, flags)
		end := m.rt.rel(t.Now())
		m.rt.instrument(t, func() {
			if err != nil {
				return
			}
			rec := m.recordFor(t, path)
			if rec != nil {
				m.recordOpen(rec, start, end)
			}
			m.fds[fd] = rec
		})
		return fd, err
	}
}

func (m *PosixModule) wrapClose(real libc.CloseFunc) libc.CloseFunc {
	return func(t *sim.Thread, fd int) error {
		start := m.rt.rel(t.Now())
		err := real(t, fd)
		end := m.rt.rel(t.Now())
		m.rt.instrument(t, func() {
			if rec := m.fds[fd]; rec != nil {
				setFirst(&rec.FCounters[POSIX_F_CLOSE_START_TIMESTAMP], start)
				rec.FCounters[POSIX_F_CLOSE_END_TIMESTAMP] = end
				rec.FCounters[POSIX_F_META_TIME] += end - start
			}
			delete(m.fds, fd)
		})
		return err
	}
}

// wrapPread builds the instrumented pread. A count-only read (nil buf)
// records exactly what a materializing read of the same span does, so the
// zero-materialization fast path is invisible in the counters, access
// histograms and DXT segments.
func (m *PosixModule) wrapPread(real libc.PreadFunc) libc.PreadFunc {
	return func(t *sim.Thread, fd int, buf []byte, count, off int64) (int, error) {
		start := m.rt.rel(t.Now())
		n, err := real(t, fd, buf, count, off)
		end := m.rt.rel(t.Now())
		m.rt.instrument(t, func() {
			if err != nil || n < 0 {
				return
			}
			if rec := m.fds[fd]; rec != nil {
				m.recordRead(t, rec, off, int64(n), start, end)
			}
		})
		return n, err
	}
}
