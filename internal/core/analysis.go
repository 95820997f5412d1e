package core

import (
	"fmt"
	"sort"

	"repro/internal/darshan"
	"repro/internal/proto"
	"repro/internal/stats"
)

// FileStats is the per-file row of a session analysis: profile.pb's own
// per-file message, so ToProto hands the rows over as they are.
type FileStats = proto.FileProfile

// SessionStats is tf-Darshan's in-situ analysis of one profiling window:
// the difference between the Darshan buffer snapshots taken at session
// start and stop (paper §III-C), organized into the quantities the
// TensorBoard panels display (paper Figs. 7a/9).
type SessionStats struct {
	StartTime float64
	EndTime   float64

	Opens  int64
	Reads  int64
	Writes int64
	Seeks  int64
	Stats  int64
	Fsyncs int64

	BytesRead    int64
	BytesWritten int64

	ZeroReads   int64
	SeqReads    int64
	ConsecReads int64
	SeqWrites   int64
	ConsecWrite int64

	ReadSizeHist  *stats.Histogram
	WriteSizeHist *stats.Histogram
	FileSizeHist  *stats.Histogram

	StdioOpens        int64
	StdioReads        int64
	StdioWrites       int64
	StdioFlushes      int64
	StdioBytesRead    int64
	StdioBytesWritten int64

	FilesAccessed int
	PerFile       []FileStats
}

// Duration returns the session window length in seconds.
func (s *SessionStats) Duration() float64 { return s.EndTime - s.StartTime }

// ReadBandwidthMBps returns POSIX read bandwidth over the window, the
// paper's headline metric (bytes transferred / elapsed wall-clock of the
// profiling session).
func (s *SessionStats) ReadBandwidthMBps() float64 {
	d := s.Duration()
	if d <= 0 {
		return 0
	}
	return float64(s.BytesRead) / 1e6 / d
}

// WriteBandwidthMBps returns POSIX write bandwidth over the window.
func (s *SessionStats) WriteBandwidthMBps() float64 {
	d := s.Duration()
	if d <= 0 {
		return 0
	}
	return float64(s.BytesWritten) / 1e6 / d
}

// NonSeqNonConsecReads returns reads that were neither sequential nor
// consecutive (the "50% of reads" observation of Fig. 7a).
func (s *SessionStats) NonSeqNonConsecReads() int64 {
	n := s.Reads - s.SeqReads
	if n < 0 {
		return 0
	}
	return n
}

// SizeOfFunc resolves a path to its current file size (for the file-size
// distribution panel); ok=false when unknown.
type SizeOfFunc func(path string) (int64, bool)

// Analyze diffs two Darshan snapshots into session statistics. sizeOf may
// be nil.
func Analyze(start, stop *darshan.Log, lookup func(uint64) (string, bool), sizeOf SizeOfFunc) *SessionStats {
	out := &SessionStats{
		StartTime:     start.JobEnd,
		EndTime:       stop.JobEnd,
		ReadSizeHist:  stats.NewDarshanSizeHistogram(),
		WriteSizeHist: stats.NewDarshanSizeHistogram(),
		FileSizeHist:  stats.NewDarshanSizeHistogram(),
	}

	base := make(map[uint64]*darshan.PosixRecord, len(start.Posix))
	for i := range start.Posix {
		base[start.Posix[i].ID] = &start.Posix[i]
	}
	// zero is the baseline of a record the start snapshot does not have.
	var zero darshan.PosixRecord
	if len(stop.Posix) > 0 {
		out.PerFile = make([]FileStats, 0, len(stop.Posix))
	}

	for i := range stop.Posix {
		rec := &stop.Posix[i]
		b, ok := base[rec.ID]
		if !ok {
			b = &zero
		}
		diff := func(c darshan.PosixCounter) int64 { return rec.Counters[c] - b.Counters[c] }
		opens := diff(darshan.POSIX_OPENS)
		reads := diff(darshan.POSIX_READS)
		writes := diff(darshan.POSIX_WRITES)
		seeks := diff(darshan.POSIX_SEEKS)
		statsN := diff(darshan.POSIX_STATS)
		fsyncs := diff(darshan.POSIX_FSYNCS)
		if opens+reads+writes+seeks+statsN+fsyncs == 0 {
			continue // untouched during the window
		}
		out.Opens += opens
		out.Reads += reads
		out.Writes += writes
		out.Seeks += seeks
		out.Stats += statsN
		out.Fsyncs += fsyncs
		out.BytesRead += diff(darshan.POSIX_BYTES_READ)
		out.BytesWritten += diff(darshan.POSIX_BYTES_WRITTEN)
		out.SeqReads += diff(darshan.POSIX_SEQ_READS)
		out.ConsecReads += diff(darshan.POSIX_CONSEC_READS)
		out.SeqWrites += diff(darshan.POSIX_SEQ_WRITES)
		out.ConsecWrite += diff(darshan.POSIX_CONSEC_WRITES)
		for k := range darshan.PosixCounter(10) {
			out.ReadSizeHist.Counts[k] += diff(darshan.POSIX_SIZE_READ_0_100 + k)
			out.WriteSizeHist.Counts[k] += diff(darshan.POSIX_SIZE_WRITE_0_100 + k)
		}

		name := ""
		if lookup != nil {
			name, _ = lookup(rec.ID)
		} else if n, ok := stop.Names[rec.ID]; ok {
			name = n
		}
		fileRow := FileStats{
			RecordID:  rec.ID,
			Name:      name,
			Opens:     opens,
			Reads:     reads,
			Writes:    writes,
			BytesRead: diff(darshan.POSIX_BYTES_READ),
			ReadTime:  rec.FCounters[darshan.POSIX_F_READ_TIME] - b.FCounters[darshan.POSIX_F_READ_TIME],
		}
		if sizeOf != nil && name != "" {
			if sz, ok := sizeOf(name); ok {
				fileRow.Size = sz
				out.FileSizeHist.Add(sz)
			}
		}
		out.PerFile = append(out.PerFile, fileRow)
		out.FilesAccessed++
	}

	// STDIO module diff.
	sbase := make(map[uint64]*darshan.StdioRecord, len(start.Stdio))
	for i := range start.Stdio {
		sbase[start.Stdio[i].ID] = &start.Stdio[i]
	}
	sdiff := func(rec *darshan.StdioRecord, c darshan.StdioCounter) int64 {
		if b, ok := sbase[rec.ID]; ok {
			return rec.Counters[c] - b.Counters[c]
		}
		return rec.Counters[c]
	}
	for i := range stop.Stdio {
		rec := &stop.Stdio[i]
		out.StdioOpens += sdiff(rec, darshan.STDIO_OPENS)
		out.StdioReads += sdiff(rec, darshan.STDIO_READS)
		out.StdioWrites += sdiff(rec, darshan.STDIO_WRITES)
		out.StdioFlushes += sdiff(rec, darshan.STDIO_FLUSHES)
		out.StdioBytesRead += sdiff(rec, darshan.STDIO_BYTES_READ)
		out.StdioBytesWritten += sdiff(rec, darshan.STDIO_BYTES_WRITTEN)
	}

	// Zero reads: exact from DXT segments within the window.
	for i := range stop.DXT {
		rec := &stop.DXT[i]
		for _, seg := range rec.ReadSegs {
			if seg.Start >= start.JobEnd && seg.End <= stop.JobEnd && seg.Length == 0 {
				out.ZeroReads++
			}
		}
	}

	sort.Slice(out.PerFile, func(i, j int) bool { return out.PerFile[i].Name < out.PerFile[j].Name })
	return out
}

// AnalyzeSnapshot treats a whole-run snapshot as one session from job
// start: the diff against an empty baseline, so every counter the rank
// accumulated lands in the statistics. This is how the cluster advisors
// turn the per-rank job-end snapshots of a distributed run into the same
// SessionStats the single-process advisors consume.
func AnalyzeSnapshot(snap *darshan.Log, sizeOf SizeOfFunc) *SessionStats {
	return Analyze(&darshan.Log{}, snap, nil, sizeOf)
}

// ToProto converts the analysis into the exported protobuf message. The
// message's Files is PerFile itself, not a copy.
func (s *SessionStats) ToProto() *proto.DarshanProfile {
	p := &proto.DarshanProfile{
		StartTime:          s.StartTime,
		EndTime:            s.EndTime,
		BytesRead:          s.BytesRead,
		BytesWritten:       s.BytesWritten,
		Opens:              s.Opens,
		Reads:              s.Reads,
		Writes:             s.Writes,
		Seeks:              s.Seeks,
		Stats:              s.Stats,
		ReadBandwidthMBps:  s.ReadBandwidthMBps(),
		WriteBandwidthMBps: s.WriteBandwidthMBps(),
		ZeroReads:          s.ZeroReads,
		SeqReads:           s.SeqReads,
		ConsecReads:        s.ConsecReads,
		ReadSizeBuckets:    append([]int64(nil), s.ReadSizeHist.Counts...),
		WriteSizeBuckets:   append([]int64(nil), s.WriteSizeHist.Counts...),
		FileSizeBuckets:    append([]int64(nil), s.FileSizeHist.Counts...),
		FilesAccessed:      int64(s.FilesAccessed),
		StdioOpens:         s.StdioOpens,
		StdioWrites:        s.StdioWrites,
		StdioBytesWritten:  s.StdioBytesWritten,
		StdioReads:         s.StdioReads,
		StdioBytesRead:     s.StdioBytesRead,
		Files:              s.PerFile,
	}
	return p
}

// Summary renders the analysis as the one-screen text the TensorBoard
// input-pipeline panel shows.
func (s *SessionStats) Summary() string {
	return fmt.Sprintf(
		"window %.2fs-%.2fs (%.2fs): POSIX %d opens, %d reads (%d zero-len, %d seq, %d consec), "+
			"%d writes | %.2f MB read (%.2f MB/s) | %d files | STDIO %d opens %d fwrites (%.2f MB)",
		s.StartTime, s.EndTime, s.Duration(),
		s.Opens, s.Reads, s.ZeroReads, s.SeqReads, s.ConsecReads,
		s.Writes, float64(s.BytesRead)/1e6, s.ReadBandwidthMBps(),
		s.FilesAccessed, s.StdioOpens, s.StdioWrites, float64(s.StdioBytesWritten)/1e6)
}
