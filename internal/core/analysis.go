package core

import (
	"fmt"
	"sort"

	"repro/internal/darshan"
	"repro/internal/proto"
	"repro/internal/stats"
)

// FileStats is the per-file row of a session analysis: profile.pb's own
// per-file message.
type FileStats = proto.FileProfile

// SessionStats is tf-Darshan's in-situ analysis of one profiling window:
// the difference between the Darshan buffer snapshots taken at session
// start and stop (paper §III-C), organized into the quantities the
// TensorBoard panels display (paper Figs. 7a/9). It is the profile.pb
// message itself (the promoted Marshal encodes it), plus what the panels
// read and the message does not carry.
type SessionStats struct {
	proto.DarshanProfile

	// StdioFlushes counts the window's fflush calls (the InputPipeline
	// page shows them).
	StdioFlushes int64

	// The size histograms; their Counts are the message's
	// ReadSizeBuckets, WriteSizeBuckets and FileSizeBuckets.
	ReadSizeHist  *stats.Histogram
	WriteSizeHist *stats.Histogram
	FileSizeHist  *stats.Histogram
}

// Duration returns the session window length in seconds.
func (s *SessionStats) Duration() float64 { return s.EndTime - s.StartTime }

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
		DarshanProfile: proto.DarshanProfile{StartTime: start.JobEnd, EndTime: stop.JobEnd},
		ReadSizeHist:   stats.NewDarshanSizeHistogram(),
		WriteSizeHist:  stats.NewDarshanSizeHistogram(),
		FileSizeHist:   stats.NewDarshanSizeHistogram(),
	}
	out.ReadSizeBuckets = out.ReadSizeHist.Counts
	out.WriteSizeBuckets = out.WriteSizeHist.Counts
	out.FileSizeBuckets = out.FileSizeHist.Counts

	base := make(map[uint64]*darshan.PosixRecord, len(start.Posix))
	for i := range start.Posix {
		base[start.Posix[i].ID] = &start.Posix[i]
	}
	// zero is the baseline of a record the start snapshot does not have.
	var zero darshan.PosixRecord
	if len(stop.Posix) > 0 {
		out.Files = make([]FileStats, 0, len(stop.Posix))
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
		if opens+reads+writes+seeks+statsN+diff(darshan.POSIX_FSYNCS) == 0 {
			continue // untouched during the window
		}
		out.Opens += opens
		out.Reads += reads
		out.Writes += writes
		out.Seeks += seeks
		out.Stats += statsN
		out.BytesRead += diff(darshan.POSIX_BYTES_READ)
		out.BytesWritten += diff(darshan.POSIX_BYTES_WRITTEN)
		out.SeqReads += diff(darshan.POSIX_SEQ_READS)
		out.ConsecReads += diff(darshan.POSIX_CONSEC_READS)
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
		out.Files = append(out.Files, fileRow)
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

	sort.Slice(out.Files, func(i, j int) bool { return out.Files[i].Name < out.Files[j].Name })
	// Bandwidth is bytes over the profiling session's elapsed time, the
	// paper's headline metric.
	if d := out.Duration(); d > 0 {
		out.ReadBandwidthMBps = float64(out.BytesRead) / 1e6 / d
		out.WriteBandwidthMBps = float64(out.BytesWritten) / 1e6 / d
	}
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

// Summary renders the analysis as the one-screen text the TensorBoard
// input-pipeline panel shows.
func (s *SessionStats) Summary() string {
	return fmt.Sprintf(
		"window %.2fs-%.2fs (%.2fs): POSIX %d opens, %d reads (%d zero-len, %d seq, %d consec), "+
			"%d writes | %.2f MB read (%.2f MB/s) | %d files | STDIO %d opens %d fwrites (%.2f MB)",
		s.StartTime, s.EndTime, s.Duration(),
		s.Opens, s.Reads, s.ZeroReads, s.SeqReads, s.ConsecReads,
		s.Writes, float64(s.BytesRead)/1e6, s.ReadBandwidthMBps,
		s.FilesAccessed, s.StdioOpens, s.StdioWrites, float64(s.StdioBytesWritten)/1e6)
}
