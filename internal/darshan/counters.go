// Package darshan reimplements the Darshan I/O characterization runtime
// (version 3.2.0-pre, the experimental non-MPI build the paper is based
// on): the core record registry, the POSIX and STDIO instrumentation
// modules with Darshan's counter semantics, the DXT extended tracing
// module, the compressed binary log format, and — the paper's augmentation
// — runtime extraction of the module buffers so an instrumented
// application can analyze its own I/O while executing.
package darshan

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

var posixCounterNames = [...]string{
	"POSIX_OPENS", "POSIX_READS", "POSIX_WRITES", "POSIX_SEEKS",
	"POSIX_STATS", "POSIX_FSYNCS", "POSIX_BYTES_READ", "POSIX_BYTES_WRITTEN",
	"POSIX_MAX_BYTE_READ", "POSIX_MAX_BYTE_WRITTEN",
	"POSIX_CONSEC_READS", "POSIX_CONSEC_WRITES",
	"POSIX_SEQ_READS", "POSIX_SEQ_WRITES", "POSIX_RW_SWITCHES",
	"POSIX_SIZE_READ_0_100", "POSIX_SIZE_READ_100_1K", "POSIX_SIZE_READ_1K_10K",
	"POSIX_SIZE_READ_10K_100K", "POSIX_SIZE_READ_100K_1M", "POSIX_SIZE_READ_1M_4M",
	"POSIX_SIZE_READ_4M_10M", "POSIX_SIZE_READ_10M_100M", "POSIX_SIZE_READ_100M_1G",
	"POSIX_SIZE_READ_1G_PLUS",
	"POSIX_SIZE_WRITE_0_100", "POSIX_SIZE_WRITE_100_1K", "POSIX_SIZE_WRITE_1K_10K",
	"POSIX_SIZE_WRITE_10K_100K", "POSIX_SIZE_WRITE_100K_1M", "POSIX_SIZE_WRITE_1M_4M",
	"POSIX_SIZE_WRITE_4M_10M", "POSIX_SIZE_WRITE_10M_100M", "POSIX_SIZE_WRITE_100M_1G",
	"POSIX_SIZE_WRITE_1G_PLUS",
	"POSIX_ACCESS1_ACCESS", "POSIX_ACCESS2_ACCESS", "POSIX_ACCESS3_ACCESS",
	"POSIX_ACCESS4_ACCESS", "POSIX_ACCESS1_COUNT", "POSIX_ACCESS2_COUNT",
	"POSIX_ACCESS3_COUNT", "POSIX_ACCESS4_COUNT",
}

// String returns the darshan-parser name of the counter.
func (c PosixCounter) String() string {
	if c < 0 || int(c) >= len(posixCounterNames) {
		return "POSIX_UNKNOWN"
	}
	return posixCounterNames[c]
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

var posixFCounterNames = [...]string{
	"POSIX_F_OPEN_START_TIMESTAMP", "POSIX_F_READ_START_TIMESTAMP",
	"POSIX_F_WRITE_START_TIMESTAMP", "POSIX_F_CLOSE_START_TIMESTAMP",
	"POSIX_F_OPEN_END_TIMESTAMP", "POSIX_F_READ_END_TIMESTAMP",
	"POSIX_F_WRITE_END_TIMESTAMP", "POSIX_F_CLOSE_END_TIMESTAMP",
	"POSIX_F_READ_TIME", "POSIX_F_WRITE_TIME", "POSIX_F_META_TIME",
	"POSIX_F_MAX_READ_TIME", "POSIX_F_MAX_WRITE_TIME",
}

// String returns the darshan-parser name of the counter.
func (c PosixFCounter) String() string {
	if c < 0 || int(c) >= len(posixFCounterNames) {
		return "POSIX_F_UNKNOWN"
	}
	return posixFCounterNames[c]
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

var stdioCounterNames = [...]string{
	"STDIO_OPENS", "STDIO_READS", "STDIO_WRITES", "STDIO_SEEKS",
	"STDIO_FLUSHES", "STDIO_BYTES_READ", "STDIO_BYTES_WRITTEN",
	"STDIO_MAX_BYTE_READ", "STDIO_MAX_BYTE_WRITTEN",
}

// String returns the darshan-parser name of the counter.
func (c StdioCounter) String() string {
	if c < 0 || int(c) >= len(stdioCounterNames) {
		return "STDIO_UNKNOWN"
	}
	return stdioCounterNames[c]
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

var stdioFCounterNames = [...]string{
	"STDIO_F_OPEN_START_TIMESTAMP", "STDIO_F_CLOSE_START_TIMESTAMP",
	"STDIO_F_OPEN_END_TIMESTAMP", "STDIO_F_CLOSE_END_TIMESTAMP",
	"STDIO_F_READ_TIME", "STDIO_F_WRITE_TIME", "STDIO_F_META_TIME",
}

// String returns the darshan-parser name of the counter.
func (c StdioFCounter) String() string {
	if c < 0 || int(c) >= len(stdioFCounterNames) {
		return "STDIO_F_UNKNOWN"
	}
	return stdioFCounterNames[c]
}

// readSizeBucket returns the POSIX_SIZE_READ_* counter for an access of
// size bytes. Darshan's buckets are upper-inclusive ([0,100], (100,1K],
// (1K,10K], ...), so an exactly-1MiB read lands in 100K_1M — which is why
// the paper's Fig. 9 histogram shows the malware workload's 1MiB segments
// clustered in the 100KB–1MB bin.
func readSizeBucket(size int64) PosixCounter {
	return POSIX_SIZE_READ_0_100 + sizeBucketOffset(size)
}

func sizeBucketOffset(size int64) PosixCounter {
	switch {
	case size <= 100:
		return 0
	case size <= 1024:
		return 1
	case size <= 10*1024:
		return 2
	case size <= 100*1024:
		return 3
	case size <= 1024*1024:
		return 4
	case size <= 4*1024*1024:
		return 5
	case size <= 10*1024*1024:
		return 6
	case size <= 100*1024*1024:
		return 7
	case size <= 1024*1024*1024:
		return 8
	default:
		return 9
	}
}

// SizeBucketLabels are the histogram bin labels in bucket order, shared by
// the TensorBoard panels and the parser output.
var SizeBucketLabels = []string{
	"0-100", "100-1K", "1K-10K", "10K-100K", "100K-1M",
	"1M-4M", "4M-10M", "10M-100M", "100M-1G", "1G+",
}
