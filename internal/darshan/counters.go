// Package darshan reimplements the Darshan I/O characterization runtime
// (version 3.2.0-pre, the experimental non-MPI build the paper is based
// on): the core record registry, the POSIX and STDIO instrumentation
// modules with Darshan's counter semantics, the DXT extended tracing
// module, the compressed binary log format, and — the paper's augmentation
// — runtime extraction of the module buffers so an instrumented
// application can analyze its own I/O while executing.
package darshan

import "repro/internal/stats"

// counterKind is how a counter reduces when records of one file fold
// together, across ranks (Merge) or across one rank's process
// incarnations (CombineSnapshots), as in Darshan's shutdown reduction.
type counterKind uint8

const (
	kindSum      counterKind = iota // operation, byte and bucket counts; F_*_TIME accumulators
	kindMax                         // MAX_BYTE_* watermarks, *_END_TIMESTAMP, F_MAX_*_TIME
	kindEarliest                    // *_START_TIMESTAMP: earliest nonzero (0 = never happened)
	kindAccess                      // ACCESS1..4: re-ranked from the combined access tables
)

// counterDef declares one counter: its darshan-parser name and its
// reduction kind. The four tables below, one entry per counter in index
// order, are the only place either is written.
type counterDef struct {
	name string
	kind counterKind
}

// fold reduces src's counters into dst by each counter's kind. kindAccess
// counters are left to the caller, which re-ranks them from the combined
// access tables.
func fold[T int64 | float64](dst, src []T, defs []counterDef) {
	for i, d := range defs {
		switch d.kind {
		case kindSum:
			dst[i] += src[i]
		case kindMax:
			dst[i] = max(dst[i], src[i])
		case kindEarliest:
			if src[i] != 0 && (dst[i] == 0 || src[i] < dst[i]) {
				dst[i] = src[i]
			}
		}
	}
}

// PosixCounter indexes the integer counters of a POSIX module record. The
// names and semantics follow darshan-posix-log-format.h.
type PosixCounter int

const (
	POSIX_OPENS PosixCounter = iota
	POSIX_READS
	POSIX_WRITES
	POSIX_SEEKS
	POSIX_STATS
	POSIX_FSYNCS
	POSIX_BYTES_READ
	POSIX_BYTES_WRITTEN
	POSIX_MAX_BYTE_READ
	POSIX_MAX_BYTE_WRITTEN
	POSIX_CONSEC_READS
	POSIX_CONSEC_WRITES
	POSIX_SEQ_READS
	POSIX_SEQ_WRITES
	POSIX_RW_SWITCHES
	POSIX_SIZE_READ_0_100
	POSIX_SIZE_READ_100_1K
	POSIX_SIZE_READ_1K_10K
	POSIX_SIZE_READ_10K_100K
	POSIX_SIZE_READ_100K_1M
	POSIX_SIZE_READ_1M_4M
	POSIX_SIZE_READ_4M_10M
	POSIX_SIZE_READ_10M_100M
	POSIX_SIZE_READ_100M_1G
	POSIX_SIZE_READ_1G_PLUS
	POSIX_SIZE_WRITE_0_100
	POSIX_SIZE_WRITE_100_1K
	POSIX_SIZE_WRITE_1K_10K
	POSIX_SIZE_WRITE_10K_100K
	POSIX_SIZE_WRITE_100K_1M
	POSIX_SIZE_WRITE_1M_4M
	POSIX_SIZE_WRITE_4M_10M
	POSIX_SIZE_WRITE_10M_100M
	POSIX_SIZE_WRITE_100M_1G
	POSIX_SIZE_WRITE_1G_PLUS
	POSIX_ACCESS1_ACCESS
	POSIX_ACCESS2_ACCESS
	POSIX_ACCESS3_ACCESS
	POSIX_ACCESS4_ACCESS
	POSIX_ACCESS1_COUNT
	POSIX_ACCESS2_COUNT
	POSIX_ACCESS3_COUNT
	POSIX_ACCESS4_COUNT

	PosixNumCounters
)

var posixCounters = [...]counterDef{
	{"POSIX_OPENS", kindSum},
	{"POSIX_READS", kindSum},
	{"POSIX_WRITES", kindSum},
	{"POSIX_SEEKS", kindSum},
	{"POSIX_STATS", kindSum},
	{"POSIX_FSYNCS", kindSum},
	{"POSIX_BYTES_READ", kindSum},
	{"POSIX_BYTES_WRITTEN", kindSum},
	{"POSIX_MAX_BYTE_READ", kindMax},
	{"POSIX_MAX_BYTE_WRITTEN", kindMax},
	{"POSIX_CONSEC_READS", kindSum},
	{"POSIX_CONSEC_WRITES", kindSum},
	{"POSIX_SEQ_READS", kindSum},
	{"POSIX_SEQ_WRITES", kindSum},
	{"POSIX_RW_SWITCHES", kindSum},
	{"POSIX_SIZE_READ_0_100", kindSum},
	{"POSIX_SIZE_READ_100_1K", kindSum},
	{"POSIX_SIZE_READ_1K_10K", kindSum},
	{"POSIX_SIZE_READ_10K_100K", kindSum},
	{"POSIX_SIZE_READ_100K_1M", kindSum},
	{"POSIX_SIZE_READ_1M_4M", kindSum},
	{"POSIX_SIZE_READ_4M_10M", kindSum},
	{"POSIX_SIZE_READ_10M_100M", kindSum},
	{"POSIX_SIZE_READ_100M_1G", kindSum},
	{"POSIX_SIZE_READ_1G_PLUS", kindSum},
	{"POSIX_SIZE_WRITE_0_100", kindSum},
	{"POSIX_SIZE_WRITE_100_1K", kindSum},
	{"POSIX_SIZE_WRITE_1K_10K", kindSum},
	{"POSIX_SIZE_WRITE_10K_100K", kindSum},
	{"POSIX_SIZE_WRITE_100K_1M", kindSum},
	{"POSIX_SIZE_WRITE_1M_4M", kindSum},
	{"POSIX_SIZE_WRITE_4M_10M", kindSum},
	{"POSIX_SIZE_WRITE_10M_100M", kindSum},
	{"POSIX_SIZE_WRITE_100M_1G", kindSum},
	{"POSIX_SIZE_WRITE_1G_PLUS", kindSum},
	{"POSIX_ACCESS1_ACCESS", kindAccess},
	{"POSIX_ACCESS2_ACCESS", kindAccess},
	{"POSIX_ACCESS3_ACCESS", kindAccess},
	{"POSIX_ACCESS4_ACCESS", kindAccess},
	{"POSIX_ACCESS1_COUNT", kindAccess},
	{"POSIX_ACCESS2_COUNT", kindAccess},
	{"POSIX_ACCESS3_COUNT", kindAccess},
	{"POSIX_ACCESS4_COUNT", kindAccess},
}

// String returns the darshan-parser name of the counter.
func (c PosixCounter) String() string {
	if c < 0 || int(c) >= len(posixCounters) {
		return "POSIX_UNKNOWN"
	}
	return posixCounters[c].name
}

// PosixFCounter indexes the float (seconds) counters of a POSIX record.
type PosixFCounter int

const (
	POSIX_F_OPEN_START_TIMESTAMP PosixFCounter = iota
	POSIX_F_READ_START_TIMESTAMP
	POSIX_F_WRITE_START_TIMESTAMP
	POSIX_F_CLOSE_START_TIMESTAMP
	POSIX_F_OPEN_END_TIMESTAMP
	POSIX_F_READ_END_TIMESTAMP
	POSIX_F_WRITE_END_TIMESTAMP
	POSIX_F_CLOSE_END_TIMESTAMP
	POSIX_F_READ_TIME
	POSIX_F_WRITE_TIME
	POSIX_F_META_TIME
	POSIX_F_MAX_READ_TIME
	POSIX_F_MAX_WRITE_TIME

	PosixNumFCounters
)

var posixFCounters = [...]counterDef{
	{"POSIX_F_OPEN_START_TIMESTAMP", kindEarliest},
	{"POSIX_F_READ_START_TIMESTAMP", kindEarliest},
	{"POSIX_F_WRITE_START_TIMESTAMP", kindEarliest},
	{"POSIX_F_CLOSE_START_TIMESTAMP", kindEarliest},
	{"POSIX_F_OPEN_END_TIMESTAMP", kindMax},
	{"POSIX_F_READ_END_TIMESTAMP", kindMax},
	{"POSIX_F_WRITE_END_TIMESTAMP", kindMax},
	{"POSIX_F_CLOSE_END_TIMESTAMP", kindMax},
	{"POSIX_F_READ_TIME", kindSum},
	{"POSIX_F_WRITE_TIME", kindSum},
	{"POSIX_F_META_TIME", kindSum},
	{"POSIX_F_MAX_READ_TIME", kindMax},
	{"POSIX_F_MAX_WRITE_TIME", kindMax},
}

// String returns the darshan-parser name of the counter.
func (c PosixFCounter) String() string {
	if c < 0 || int(c) >= len(posixFCounters) {
		return "POSIX_F_UNKNOWN"
	}
	return posixFCounters[c].name
}

// StdioCounter indexes the integer counters of a STDIO module record,
// following darshan-stdio-log-format.h.
type StdioCounter int

const (
	STDIO_OPENS StdioCounter = iota
	STDIO_READS
	STDIO_WRITES
	STDIO_SEEKS
	STDIO_FLUSHES
	STDIO_BYTES_READ
	STDIO_BYTES_WRITTEN
	STDIO_MAX_BYTE_READ
	STDIO_MAX_BYTE_WRITTEN

	StdioNumCounters
)

var stdioCounters = [...]counterDef{
	{"STDIO_OPENS", kindSum},
	{"STDIO_READS", kindSum},
	{"STDIO_WRITES", kindSum},
	{"STDIO_SEEKS", kindSum},
	{"STDIO_FLUSHES", kindSum},
	{"STDIO_BYTES_READ", kindSum},
	{"STDIO_BYTES_WRITTEN", kindSum},
	{"STDIO_MAX_BYTE_READ", kindMax},
	{"STDIO_MAX_BYTE_WRITTEN", kindMax},
}

// String returns the darshan-parser name of the counter.
func (c StdioCounter) String() string {
	if c < 0 || int(c) >= len(stdioCounters) {
		return "STDIO_UNKNOWN"
	}
	return stdioCounters[c].name
}

// StdioFCounter indexes the float counters of a STDIO record.
type StdioFCounter int

const (
	STDIO_F_OPEN_START_TIMESTAMP StdioFCounter = iota
	STDIO_F_CLOSE_START_TIMESTAMP
	STDIO_F_OPEN_END_TIMESTAMP
	STDIO_F_CLOSE_END_TIMESTAMP
	STDIO_F_READ_TIME
	STDIO_F_WRITE_TIME
	STDIO_F_META_TIME

	StdioNumFCounters
)

var stdioFCounters = [...]counterDef{
	{"STDIO_F_OPEN_START_TIMESTAMP", kindEarliest},
	{"STDIO_F_CLOSE_START_TIMESTAMP", kindEarliest},
	{"STDIO_F_OPEN_END_TIMESTAMP", kindMax},
	{"STDIO_F_CLOSE_END_TIMESTAMP", kindMax},
	{"STDIO_F_READ_TIME", kindSum},
	{"STDIO_F_WRITE_TIME", kindSum},
	{"STDIO_F_META_TIME", kindSum},
}

// String returns the darshan-parser name of the counter.
func (c StdioFCounter) String() string {
	if c < 0 || int(c) >= len(stdioFCounters) {
		return "STDIO_F_UNKNOWN"
	}
	return stdioFCounters[c].name
}

// readSizeBucket returns the POSIX_SIZE_READ_* counter for an access of
// size bytes. Darshan's buckets are upper-inclusive ([0,100], (100,1K],
// (1K,10K], ...), so an exactly-1MiB read lands in 100K_1M — which is why
// the paper's Fig. 9 histogram shows the malware workload's 1MiB segments
// clustered in the 100KB–1MB bin.
func readSizeBucket(size int64) PosixCounter {
	for i, edge := range stats.DarshanSizeEdges {
		if size <= edge {
			return POSIX_SIZE_READ_0_100 + PosixCounter(i)
		}
	}
	return POSIX_SIZE_READ_1G_PLUS
}
