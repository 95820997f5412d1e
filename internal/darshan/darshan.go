package darshan

import (
	"cmp"
	"hash/fnv"
	"slices"

	"repro/internal/sim"
)

// RecordID returns the Darshan record id for a file path (Darshan hashes
// the full path to a 64-bit id; we use FNV-1a).
func RecordID(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// Config tunes the runtime's memory bounds.
type Config struct {
	// MaxRecordsPerModule bounds tracked files per module (Darshan's
	// module memory cap; files beyond it are not tracked).
	MaxRecordsPerModule int
	// MaxDXTSegsPerRecord bounds trace segments per file per direction.
	MaxDXTSegsPerRecord int
	// DXTStdio additionally traces stdio stream reads/writes as DXT
	// segments at their logical stream offsets. Real Darshan's DXT covers
	// POSIX/MPI-IO only, so this is off by default; the failure scenario
	// enables it to see buffered checkpoint writes and restore read
	// bursts on the merged timeline.
	DXTStdio bool
}

// DefaultConfig returns the runtime configuration used in the paper's
// experiments: generous record limits (the ImageNet epoch tracks 128K
// files). Extended tracing (DXT) is always on: tf-Darshan's timelines
// (Figs. 7-10) are built from it.
func DefaultConfig() Config {
	return Config{
		MaxRecordsPerModule: 1 << 20,
		MaxDXTSegsPerRecord: 1 << 14,
	}
}

// The runtime's self-instrumentation costs, charged to the virtual clock so
// profiled runs are measurably (and realistically) slower than unprofiled
// runs — the basis of the paper's Fig. 5 overhead study.
const (
	// wrapCPU is the bookkeeping cost per wrapped I/O call.
	wrapCPU = 200 * sim.Nanosecond
	// newRecordCPU is the cost of registering a newly seen file (path
	// hashing, record allocation).
	newRecordCPU = 2 * sim.Microsecond
	// dxtSegCPU is the cost of appending one trace segment.
	dxtSegCPU = 150 * sim.Nanosecond
	// snapshotRecordCPU is the per-record cost of the runtime extraction
	// (buffer copy + marshalling) added for tf-Darshan. Every profiling
	// window pays it twice over the *cumulative* record set, which is why
	// the paper's manual-mode overhead grows with the number of files
	// processed (Fig. 5, §IV-C).
	snapshotRecordCPU = 50 * sim.Microsecond
)

// Runtime is the in-process Darshan runtime (darshan-core plus the POSIX,
// STDIO and DXT modules). One Runtime instruments one process.
type Runtime struct {
	cfg      Config
	rank     int   // MPI-style rank stamped on every record (0 outside clusters)
	jobStart int64 // virtual ns at runtime init

	// mu is the darshan-core lock: every wrapper's record update holds
	// it, and the runtime extraction holds it for the whole buffer copy.
	// Instrumented I/O therefore stalls while a snapshot is being taken,
	// which is how extraction cost becomes visible wall-clock overhead
	// even in deeply prefetched pipelines (Fig. 5).
	mu sim.Mutex

	names map[uint64]string

	Posix *PosixModule
	Stdio *StdioModule
	DXT   *DXTModule
}

// NewRuntime initializes the runtime at the current virtual time (job
// start). now is the kernel time at process start.
func NewRuntime(cfg Config, now int64) *Runtime {
	rt := &Runtime{
		cfg:      cfg,
		jobStart: now,
		names:    make(map[uint64]string),
	}
	rt.Posix = newPosixModule(rt)
	rt.Stdio = newStdioModule(rt)
	rt.DXT = newDXTModule(rt)
	return rt
}

// SetRank stamps all records created from now on with an MPI-style rank.
// The distributed driver gives each simulated process its own runtime and
// rank, so per-rank logs carry their origin like Darshan's MPI build.
func (rt *Runtime) SetRank(rank int) { rt.rank = rank }

// Export copies the module buffers at job end into a single-process log
// without charging simulated time: Darshan's shutdown reduction runs after
// the application's threads have exited, so there is no instrumented
// thread to bill. now is the kernel time at export.
func (rt *Runtime) Export(now int64) *Log {
	return &Log{
		JobEnd: rt.rel(now),
		NProcs: 1,
		Posix:  rt.Posix.copyRecords(),
		Stdio:  rt.Stdio.copyRecords(),
		DXT:    rt.DXT.copyRecords(),
		Names:  rt.NameRecords(),
	}
}

// rel converts an absolute virtual time to seconds since job start, the
// unit of all Darshan float counters.
func (rt *Runtime) rel(now int64) float64 {
	return float64(now-rt.jobStart) / 1e9
}

// registerName maps a record id to its path, once.
func (rt *Runtime) registerName(id uint64, path string) {
	if _, ok := rt.names[id]; !ok {
		rt.names[id] = path
	}
}

// LookupName resolves a record id to the file path, the helper the paper
// exports from the shared library via dlsym.
func (rt *Runtime) LookupName(id uint64) (string, bool) {
	p, ok := rt.names[id]
	return p, ok
}

// NameRecords returns a copy of the id→path table.
func (rt *Runtime) NameRecords() map[uint64]string {
	out := make(map[uint64]string, len(rt.names))
	for k, v := range rt.names {
		out[k] = v
	}
	return out
}

// instrument runs fn under the darshan-core lock, charging the per-call
// bookkeeping cost. All wrapper record updates go through it.
func (rt *Runtime) instrument(t *sim.Thread, fn func()) {
	rt.mu.Lock(t)
	t.Sleep(wrapCPU)
	fn()
	rt.mu.Unlock(t)
}

func (rt *Runtime) chargeNewRecord(t *sim.Thread) {
	t.Sleep(newRecordCPU)
}

// Snapshot deep-copies the module buffers at the current instant. This is
// the data-extraction function the paper adds to the Darshan shared
// library: tf-Darshan snapshots at profiling start and stop and diffs the
// two to obtain session statistics. The copy cost is charged to the
// calling thread while the core lock is held, so concurrent instrumented
// I/O stalls for the duration — the consistency price of runtime
// extraction. The snapshot is a single-process log whose JobEnd is the
// snapshot instant.
func (rt *Runtime) Snapshot(t *sim.Thread) *Log {
	rt.mu.Lock(t)
	nRecords := rt.Posix.RecordCount() + rt.Stdio.RecordCount()
	if nRecords > 0 {
		t.Sleep(sim.Duration(nRecords) * snapshotRecordCPU)
	}
	snap := rt.Export(t.Now())
	rt.mu.Unlock(t)
	return snap
}

// PosixByID returns the POSIX record with the given id, if present.
func (l *Log) PosixByID(id uint64) (PosixRecord, bool) {
	for i := range l.Posix {
		if l.Posix[i].ID == id {
			return l.Posix[i], true
		}
	}
	return PosixRecord{}, false
}

// compareAccess is the explicit ACCESS1..4 ranking order: larger count
// first, count ties broken by smaller size. Sizes are unique table keys,
// so the order is total — re-ranking is byte-stable regardless of the map
// iteration order that feeds the sort (both the per-record overflow map
// and Merge's combined cross-rank tables).
func compareAccess(a, b accessEntry) int {
	if c := cmp.Compare(b.count, a.count); c != 0 {
		return c
	}
	return cmp.Compare(a.size, b.size)
}

// finalize writes the table's four most common sizes into rec's
// ACCESS1..4 counters, ordered by compareAccess, as darshan-core does
// during shutdown reduction.
func (a *accessTable) finalize(rec *PosixRecord) {
	// Stack buffer for the common case (≤4 inline sizes, no overflow map):
	// finalization runs per record per snapshot, so it must not allocate.
	var stack [8]accessEntry
	pairs := stack[:0]
	if n := a.n + len(a.overflow); n > len(stack) {
		pairs = make([]accessEntry, 0, n)
	}
	pairs = append(pairs, a.inline[:a.n]...)
	for s, c := range a.overflow {
		pairs = append(pairs, accessEntry{size: s, count: c})
	}
	// slices.SortFunc is generic, so it does not allocate at any size
	// (sort.Slice's reflection-based swapper would).
	slices.SortFunc(pairs, compareAccess)
	for i := 0; i < 4; i++ {
		var s, c int64
		if i < len(pairs) {
			s, c = pairs[i].size, pairs[i].count
		}
		rec.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(i)] = s
		rec.Counters[POSIX_ACCESS1_COUNT+PosixCounter(i)] = c
	}
}
