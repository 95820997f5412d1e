// Package tensorboard renders the profile pages the paper adds to the
// TensorBoard Profile plugin (Fig. 1): the Overview step-time breakdown,
// the Input-Pipeline Analysis extended with tf-Darshan's POSIX statistics
// (bandwidth, operation counts, read-size/file-size distributions, access
// patterns — the panels of Figs. 7a/9), and the TraceViewer timelines. It
// renders text for terminals, HTML for browsers, and serves both over
// HTTP together with the raw artifacts (trace.json.gz, profile protobuf).
package tensorboard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tf/keras"
	"repro/internal/tf/profiler"
	"repro/internal/trace"
)

// ProfileData is one profiled run, as displayed by the plugin.
type ProfileData struct {
	Run            string
	History        *keras.History
	Analysis       *core.SessionStats
	Space          *profiler.XSpace
	SessionStartNs int64
}

// OverviewText renders the Overview page: the step-time breakdown that
// told the paper "the training is highly input bound" (96% waiting on
// input for ImageNet, 99% for malware).
func (p *ProfileData) OverviewText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overview — run %q\n", p.Run)
	if p.History == nil {
		b.WriteString("  no step data collected\n")
		return b.String()
	}
	h := p.History
	frac := h.InputBoundFraction()
	var wait, comp int64
	for i := range h.StepWaitNs {
		wait += h.StepWaitNs[i]
		comp += h.StepComputeNs[i]
	}
	fmt.Fprintf(&b, "  steps sampled:        %d\n", h.StepsRun)
	fmt.Fprintf(&b, "  total step time:      %.3f s\n", float64(wait+comp)/1e9)
	fmt.Fprintf(&b, "  waiting for input:    %.3f s (%.1f%%)\n", float64(wait)/1e9, frac*100)
	fmt.Fprintf(&b, "  device compute:       %.3f s (%.1f%%)\n", float64(comp)/1e9, (1-frac)*100)
	switch {
	case frac > 0.5:
		fmt.Fprintf(&b, "  verdict: HIGHLY INPUT BOUND — %.0f%% of the sampled step time is waiting for input data\n", frac*100)
	case frac > 0.2:
		b.WriteString("  verdict: moderately input bound\n")
	default:
		b.WriteString("  verdict: compute bound\n")
	}
	return b.String()
}

// accessPatternRows summarizes the session's read access pattern.
func accessPatternRows(a *core.SessionStats) []string {
	var rows []string
	if a.Reads > 0 {
		rows = append(rows,
			fmt.Sprintf("sequential reads:   %d (%.1f%%)", a.SeqReads, 100*float64(a.SeqReads)/float64(a.Reads)),
			fmt.Sprintf("consecutive reads:  %d (%.1f%%)", a.ConsecReads, 100*float64(a.ConsecReads)/float64(a.Reads)),
			fmt.Sprintf("neither seq/consec: %d (%.1f%%)", a.NonSeqNonConsecReads(), 100*float64(a.NonSeqNonConsecReads())/float64(a.Reads)),
			fmt.Sprintf("zero-length reads:  %d (%.1f%%)", a.ZeroReads, 100*float64(a.ZeroReads)/float64(a.Reads)),
		)
	}
	return rows
}

// InputPipelineText renders the Input-Pipeline Analysis page with the
// tf-Darshan additions.
func (p *ProfileData) InputPipelineText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Input-Pipeline Analysis — run %q\n", p.Run)
	a := p.Analysis
	if a == nil {
		b.WriteString("  tf-Darshan data unavailable (profiler ran without the Darshan tracer)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\n[tf-Darshan] POSIX I/O statistics over window %.2fs–%.2fs\n", a.StartTime, a.EndTime)
	fmt.Fprintf(&b, "  read bandwidth:  %8.2f MB/s\n", a.ReadBandwidthMBps)
	fmt.Fprintf(&b, "  write bandwidth: %8.2f MB/s\n", a.WriteBandwidthMBps)
	fmt.Fprintf(&b, "  opens=%d reads=%d writes=%d seeks=%d stats=%d files=%d\n",
		a.Opens, a.Reads, a.Writes, a.Seeks, a.Stats, a.FilesAccessed)
	fmt.Fprintf(&b, "  bytes read=%.2f MB written=%.2f MB\n",
		float64(a.BytesRead)/1e6, float64(a.BytesWritten)/1e6)
	b.WriteString("\n[tf-Darshan] access pattern\n")
	for _, r := range accessPatternRows(a) {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	b.WriteString("\n[tf-Darshan] POSIX read size distribution\n")
	b.WriteString(indent(a.ReadSizeHist.String(), 2))
	if a.Writes > 0 {
		b.WriteString("\n[tf-Darshan] POSIX write size distribution\n")
		b.WriteString(indent(a.WriteSizeHist.String(), 2))
	}
	if a.FileSizeHist.Total() > 0 {
		b.WriteString("\n[tf-Darshan] file size distribution (accessed files)\n")
		b.WriteString(indent(a.FileSizeHist.String(), 2))
	}
	if a.StdioOpens+a.StdioWrites > 0 {
		b.WriteString("\n[tf-Darshan] STDIO layer\n")
		fmt.Fprintf(&b, "  fopens=%d fwrites=%d (%.2f MB) freads=%d flushes=%d\n",
			a.StdioOpens, a.StdioWrites, float64(a.StdioBytesWritten)/1e6, a.StdioReads, a.StdioFlushes)
	}
	if rows := topFilesByReadTime(a, 5); len(rows) > 0 {
		b.WriteString("\n[tf-Darshan] top files by read time\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %s\n", r)
		}
	}
	return b.String()
}

// topFilesByReadTime sorts an index of the per-file rows rather than a
// copy of them. sort.Slice's result depends only on the comparisons'
// outcomes, so the index comes out in the order the rows themselves
// would, ties included.
func topFilesByReadTime(a *core.SessionStats, n int) []string {
	idx := make([]int32, len(a.Files))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool { return a.Files[idx[i]].ReadTime > a.Files[idx[j]].ReadTime })
	if len(idx) > n {
		idx = idx[:n]
	}
	var rows []string
	for _, i := range idx {
		f := &a.Files[i]
		rows = append(rows, fmt.Sprintf("%-50s %8.3fms %3d reads %10d bytes",
			f.Name, f.ReadTime*1e3, f.Reads, f.BytesRead))
	}
	return rows
}

// TraceViewerText renders the per-file timelines (Figs. 8/10 views).
func (p *ProfileData) TraceViewerText(maxLines, maxEvents int) string {
	if p.Space == nil {
		return "TraceViewer: no collected XSpace\n"
	}
	return trace.RenderTimelines(p.Space, p.SessionStartNs, maxLines, maxEvents)
}

// BandwidthComparisonText renders the dstat-vs-tf-Darshan validation view
// (Figs. 3/4): the dstat per-second series next to the per-session
// tf-Darshan samples.
func BandwidthComparisonText(dstatSeries *stats.Series, ts, mbps []float64) string {
	var b strings.Builder
	b.WriteString("Bandwidth validation: dstat (per second) vs tf-Darshan (per profiling session)\n")
	tfd := &stats.Series{Name: "tf-Darshan"}
	for i := range ts {
		tfd.Add(ts[i], mbps[i])
	}
	b.WriteString(stats.RenderASCII(dstatSeries))
	b.WriteString("tf-Darshan session samples:\n")
	b.WriteString(stats.RenderASCII(tfd))
	return b.String()
}

func indent(s string, n int) string {
	pad := strings.Repeat(" ", n)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
