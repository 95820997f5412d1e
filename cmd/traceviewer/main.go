// Command traceviewer renders profiling artifacts as text — a terminal
// stand-in for TensorBoard's TraceViewer (the Figs. 8/10 views).
//
// Two input formats, told apart by their magic bytes:
//
//   - trace.json.gz: events per process/thread in time order;
//   - darshan.log (single or merged kind): one activity lane per rank —
//     each lane is the rank's read/write activity over the job, so a
//     failed rank's downtime gap and the cluster-wide restore read burst
//     that follows are visible at a glance.
//
// Usage:
//
//	traceviewer [-limit n] [-cols n] <trace.json.gz | darshan.log>
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/darshan"
	"repro/internal/trace"
)

var errUsage = errors.New("usage: traceviewer [-limit n] [-cols n] <trace.json.gz | darshan.log>")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("traceviewer", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	limit := fs.Int("limit", 20, "max events to print per thread (0 = all; trace.json.gz input)")
	cols := fs.Int("cols", 64, "lane width in columns (darshan.log input)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(w, errUsage.Error())
			fs.SetOutput(w)
			fs.PrintDefaults()
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() != 1 || *cols < 1 {
		return errUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	prefix, err := br.Peek(8)
	if err != nil && err != io.EOF {
		return err
	}
	if darshan.IsLogData(prefix) {
		return renderDarshan(w, br, *cols)
	}
	doc, err := trace.ReadJSONGz(br)
	if err != nil {
		return err
	}
	return renderTrace(w, doc, *limit)
}

// rawEvent mirrors the union of event and metadata records.
type rawEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// renderTrace prints the events per process and thread. An event that
// does not decode is an error: skipping it would render a damaged
// document as a shorter, plausible-looking trace.
func renderTrace(w io.Writer, doc *trace.File, limit int) error {
	procNames := map[int]string{}
	threadNames := map[[2]int64]string{}
	byThread := map[[2]int64][]rawEvent{}
	for i, raw := range doc.TraceEvents {
		var ev rawEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("trace event %d: %w", i, err)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procNames[ev.PID] = ev.Args["name"]
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames[[2]int64{int64(ev.PID), ev.TID}] = ev.Args["name"]
		case ev.Ph == "X":
			key := [2]int64{int64(ev.PID), ev.TID}
			byThread[key] = append(byThread[key], ev)
		}
	}

	keys := make([][2]int64, 0, len(byThread))
	for k := range byThread {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	lastPID := int64(-1)
	for _, k := range keys {
		if k[0] != lastPID {
			fmt.Fprintf(w, "=== process %d: %s ===\n", k[0], procNames[int(k[0])])
			lastPID = k[0]
		}
		fmt.Fprintf(w, "  -- thread %d: %s\n", k[1], threadNames[k])
		evs := byThread[k]
		sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		n := len(evs)
		if limit > 0 && n > limit {
			n = limit
		}
		for i := 0; i < n; i++ {
			ev := evs[i]
			fmt.Fprintf(w, "     [%12.3fms +%9.3fms] %s", ev.TS/1e3, ev.Dur/1e3, ev.Name)
			argKeys := make([]string, 0, len(ev.Args))
			for a := range ev.Args {
				argKeys = append(argKeys, a)
			}
			sort.Strings(argKeys)
			for _, a := range argKeys {
				fmt.Fprintf(w, " %s=%s", a, ev.Args[a])
			}
			fmt.Fprintln(w)
		}
		if n < len(evs) {
			fmt.Fprintf(w, "     ... %d more events\n", len(evs)-n)
		}
	}
	return nil
}

// lane accumulates one rank's timeline statistics: a bucketed activity
// strip plus counters.
type lane struct {
	cells      []byte // bitmask per column: 1=read, 2=write
	segs       int64
	readBytes  int64
	writeBytes int64
	firstStart float64
	lastEnd    float64
	// prevEnd/maxGap track the largest idle window between consecutive
	// segments (the timeline is globally start-ordered, so per-rank
	// arrivals are start-ordered too). A dead node's reboot shows up
	// here.
	prevEnd     float64
	maxGap      float64
	maxGapStart float64
}

func (l *lane) add(s darshan.MergedSegment, span float64) {
	if l.segs == 0 {
		l.firstStart = s.Start
	} else if gap := s.Start - l.prevEnd; gap > l.maxGap {
		l.maxGap = gap
		l.maxGapStart = l.prevEnd
	}
	if s.End > l.prevEnd {
		l.prevEnd = s.End
	}
	if s.End > l.lastEnd {
		l.lastEnd = s.End
	}
	l.segs++
	if s.Write {
		l.writeBytes += s.Length
	} else {
		l.readBytes += s.Length
	}
	cols := len(l.cells)
	lo := int(s.Start / span * float64(cols))
	hi := int(s.End / span * float64(cols))
	for c := lo; c <= hi && c < cols; c++ {
		if c < 0 {
			continue
		}
		if s.Write {
			l.cells[c] |= 2
		} else {
			l.cells[c] |= 1
		}
	}
}

func (l *lane) strip() string {
	out := make([]byte, len(l.cells))
	for i, c := range l.cells {
		out[i] = [4]byte{'.', 'r', 'w', 'x'}[c&3]
	}
	return string(out)
}

// fmtBytes renders a byte count in KB below 1 MB (checkpoint records are
// small) and MB above.
func fmtBytes(n int64) string {
	if n < 1e6 {
		return fmt.Sprintf("%.1fKB", float64(n)/1e3)
	}
	return fmt.Sprintf("%.1fMB", float64(n)/1e6)
}

// renderDarshan renders a binary Darshan log as per-rank activity lanes.
// Merged logs get one lane per rank from the rank-attributed timeline;
// single-process logs get one lane fed by the per-file DXT records.
func renderDarshan(w io.Writer, r io.Reader, cols int) error {
	log, err := darshan.ReadLog(r)
	if err != nil {
		return err
	}
	span := log.JobEnd
	if span <= 0 {
		span = 1
	}
	kind := "single"
	if log.Merged {
		kind = "merged"
	}
	lanes := make([]*lane, log.NProcs)
	for i := range lanes {
		lanes[i] = &lane{cells: make([]byte, cols)}
	}
	files := map[uint64]bool{}
	for _, s := range log.Timeline {
		files[s.ID] = true
		lanes[s.Rank].add(s, span)
	}
	for _, rec := range log.DXT {
		files[rec.ID] = true
		for dir, segs := range [2][]darshan.Segment{rec.ReadSegs, rec.WriteSegs} {
			for _, s := range segs {
				lanes[0].add(darshan.MergedSegment{Segment: s, ID: rec.ID, Write: dir == 1}, span)
			}
		}
	}

	var total int64
	for _, l := range lanes {
		total += l.segs
	}
	fmt.Fprintf(w, "=== darshan %s log: nprocs %d, job end %.3fs ===\n", kind, log.NProcs, log.JobEnd)
	fmt.Fprintf(w, "%d segments (dropped %d) over %d files; %d columns of %.3fs (r=read w=write x=both .=idle)\n",
		total, log.DroppedSegments, len(files), cols, span/float64(cols))
	for rank, l := range lanes {
		fmt.Fprintf(w, "rank %d |%s|\n", rank, l.strip())
		if l.segs == 0 {
			fmt.Fprintf(w, "        no traced activity\n")
			continue
		}
		fmt.Fprintf(w, "        %d segs, read %s write %s, active %.3fs..%.3fs",
			l.segs, fmtBytes(l.readBytes), fmtBytes(l.writeBytes), l.firstStart, l.lastEnd)
		if l.maxGap > 0 {
			fmt.Fprintf(w, ", largest gap %.3fs at %.3fs", l.maxGap, l.maxGapStart)
		}
		fmt.Fprintln(w)
	}
	return nil
}
