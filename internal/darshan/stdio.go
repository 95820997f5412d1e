package darshan

import (
	"slices"

	"repro/internal/libc"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// StdioRecord is one file's STDIO-module record. TensorFlow writes
// checkpoints through buffered writable files that call fwrite(3), so the
// paper's Fig. 6 checkpoint activity appears in this module (and not in
// POSIX, since libc's internal flushes bypass the PLT).
type StdioRecord struct {
	ID        uint64
	Rank      int
	Counters  [StdioNumCounters]int64
	FCounters [StdioNumFCounters]float64
}

// StdioModule instruments the stdio stream functions.
type StdioModule struct {
	rt      *Runtime
	records map[uint64]*StdioRecord
	order   []*StdioRecord // records in first-seen order
	// streams maps each open stream to its file's record; a nil record
	// means the file is open but beyond the record cap.
	streams   map[*vfs.Stream]*StdioRecord
	Untracked int64
}

func newStdioModule(rt *Runtime) *StdioModule {
	return &StdioModule{
		rt:      rt,
		records: make(map[uint64]*StdioRecord),
		streams: make(map[*vfs.Stream]*StdioRecord),
	}
}

// RecordCount returns the number of tracked files.
func (m *StdioModule) RecordCount() int { return len(m.records) }

// Records returns the live records in first-seen order (not copies).
func (m *StdioModule) Records() []*StdioRecord {
	return slices.Clone(m.order)
}

func (m *StdioModule) copyRecords() []StdioRecord {
	if len(m.order) == 0 {
		return nil // match the log decoder's absent-block convention
	}
	out := make([]StdioRecord, 0, len(m.order))
	for _, rec := range m.order {
		out = append(out, *rec)
	}
	return out
}

func (m *StdioModule) recordFor(t *sim.Thread, path string) *StdioRecord {
	id := RecordID(path)
	if rec, ok := m.records[id]; ok {
		return rec
	}
	if len(m.records) >= m.rt.cfg.MaxRecordsPerModule {
		m.Untracked++
		return nil
	}
	m.rt.chargeNewRecord(t)
	rec := &StdioRecord{ID: id, Rank: m.rt.rank}
	m.records[id] = rec
	m.order = append(m.order, rec)
	m.rt.registerName(id, path)
	return rec
}

func (m *StdioModule) wrapFopen(real libc.FopenFunc) libc.FopenFunc {
	return func(t *sim.Thread, path, mode string) (*vfs.Stream, error) {
		start := m.rt.rel(t.Now())
		st, err := real(t, path, mode)
		end := m.rt.rel(t.Now())
		m.rt.instrument(t, func() {
			if err != nil {
				return
			}
			rec := m.recordFor(t, path)
			if rec != nil {
				rec.Counters[STDIO_OPENS]++
				setFirst(&rec.FCounters[STDIO_F_OPEN_START_TIMESTAMP], start)
				rec.FCounters[STDIO_F_OPEN_END_TIMESTAMP] = end
				rec.FCounters[STDIO_F_META_TIME] += end - start
			}
			m.streams[st] = rec
		})
		return st, err
	}
}

// wrapFread builds the instrumented fread; a count-only read (nil buf)
// records exactly what a materializing read of the same span does.
func (m *StdioModule) wrapFread(real libc.FreadFunc) libc.FreadFunc {
	return func(t *sim.Thread, st *vfs.Stream, buf []byte, count int64) (int, error) {
		start := m.rt.rel(t.Now())
		n, err := real(t, st, buf, count)
		end := m.rt.rel(t.Now())
		m.rt.instrument(t, func() {
			if err != nil || n < 0 {
				return
			}
			if rec := m.streams[st]; rec != nil {
				rec.Counters[STDIO_READS]++
				rec.Counters[STDIO_BYTES_READ] += int64(n)
				rec.Counters[STDIO_MAX_BYTE_READ] = max(rec.Counters[STDIO_MAX_BYTE_READ], int64(n))
				rec.FCounters[STDIO_F_READ_TIME] += end - start
				if m.rt.cfg.DXTStdio {
					m.rt.DXT.add(t, rec.ID, false, st.Offset()-int64(n), int64(n), start, end)
				}
			}
		})
		return n, err
	}
}

func (m *StdioModule) wrapFwrite(real libc.FwriteFunc) libc.FwriteFunc {
	return func(t *sim.Thread, st *vfs.Stream, buf []byte) (int, error) {
		start := m.rt.rel(t.Now())
		n, err := real(t, st, buf)
		end := m.rt.rel(t.Now())
		m.rt.instrument(t, func() {
			if err != nil || n < 0 {
				return
			}
			if rec := m.streams[st]; rec != nil {
				rec.Counters[STDIO_WRITES]++
				rec.Counters[STDIO_BYTES_WRITTEN] += int64(n)
				rec.Counters[STDIO_MAX_BYTE_WRITTEN] = max(rec.Counters[STDIO_MAX_BYTE_WRITTEN], int64(n))
				rec.FCounters[STDIO_F_WRITE_TIME] += end - start
				if m.rt.cfg.DXTStdio {
					m.rt.DXT.add(t, rec.ID, true, st.Offset()-int64(n), int64(n), start, end)
				}
			}
		})
		return n, err
	}
}

func (m *StdioModule) wrapFclose(real libc.FcloseFunc) libc.FcloseFunc {
	return func(t *sim.Thread, st *vfs.Stream) error {
		start := m.rt.rel(t.Now())
		err := real(t, st)
		end := m.rt.rel(t.Now())
		m.rt.instrument(t, func() {
			if rec := m.streams[st]; rec != nil {
				setFirst(&rec.FCounters[STDIO_F_CLOSE_START_TIMESTAMP], start)
				rec.FCounters[STDIO_F_CLOSE_END_TIMESTAMP] = end
				rec.FCounters[STDIO_F_META_TIME] += end - start
			}
			delete(m.streams, st)
		})
		return err
	}
}
