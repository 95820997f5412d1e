package darshan

import (
	"slices"

	"repro/internal/sim"
)

// Segment is one DXT trace segment: a single read or write with its file
// offset, length and wall-clock window (seconds since job start). This is
// the per-operation detail tf-Darshan exports to the TraceViewer.
type Segment struct {
	Offset int64
	Length int64
	Start  float64
	End    float64
	TID    int
}

// DXTRecord holds the extended traces for one file, split by direction as
// in DXT's posix module.
type DXTRecord struct {
	ID        uint64
	ReadSegs  []Segment
	WriteSegs []Segment
	// Dropped counts segments discarded after the per-record memory
	// bound was reached.
	Dropped int64
}

// DXTModule implements Darshan eXtended Tracing for POSIX operations.
type DXTModule struct {
	rt      *Runtime
	records map[uint64]*DXTRecord
	order   []*DXTRecord // records in first-seen order
}

func newDXTModule(rt *Runtime) *DXTModule {
	return &DXTModule{rt: rt, records: make(map[uint64]*DXTRecord)}
}

// Records returns live records in first-seen order (not copies).
func (m *DXTModule) Records() []*DXTRecord {
	return slices.Clone(m.order)
}

func (m *DXTModule) copyRecords() []DXTRecord {
	if len(m.order) == 0 {
		return nil // match the log decoder's absent-block convention
	}
	out := make([]DXTRecord, 0, len(m.order))
	for _, src := range m.order {
		out = append(out, DXTRecord{
			ID:        src.ID,
			ReadSegs:  append([]Segment(nil), src.ReadSegs...),
			WriteSegs: append([]Segment(nil), src.WriteSegs...),
			Dropped:   src.Dropped,
		})
	}
	return out
}

// appendSeg appends with explicit geometric growth from a floor of
// dxtSegFloor: per-operation appends skip Go's 1→2 capacity ramp, a
// record tracing thousands of segments pays a handful of grow-copies
// (doubling, where append slows to 1.25× for large slices), and the
// steady-state append is allocation-free.
func appendSeg(segs []Segment, s Segment) []Segment {
	if len(segs) == cap(segs) {
		grown := make([]Segment, len(segs), max(2*cap(segs), dxtSegFloor))
		copy(grown, segs)
		segs = grown
	}
	return append(segs, s)
}

// dxtSegFloor is a DXT segment slice's first capacity. Most traced files
// are read whole in a couple of operations (an ImageNet record is 2
// reads), so a larger floor mostly reserves room that is never used: a
// floor of 16 would hold 640 B per file for 80 B of trace.
const dxtSegFloor = 4

func (m *DXTModule) recordFor(id uint64) *DXTRecord {
	if rec, ok := m.records[id]; ok {
		return rec
	}
	if len(m.records) >= m.rt.cfg.MaxRecordsPerModule {
		return nil
	}
	rec := &DXTRecord{ID: id}
	m.records[id] = rec
	m.order = append(m.order, rec)
	return rec
}

// add traces one read or write segment of file id, or counts it as
// dropped once the record holds its per-direction segment bound.
func (m *DXTModule) add(t *sim.Thread, id uint64, write bool, offset, length int64, start, end float64) {
	rec := m.recordFor(id)
	if rec == nil {
		return
	}
	segs := &rec.ReadSegs
	if write {
		segs = &rec.WriteSegs
	}
	if len(*segs) >= m.rt.cfg.MaxDXTSegsPerRecord {
		rec.Dropped++
		return
	}
	t.Sleep(dxtSegCPU)
	*segs = appendSeg(*segs, Segment{Offset: offset, Length: length, Start: start, End: end, TID: t.ID()})
}
