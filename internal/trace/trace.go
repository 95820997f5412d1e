// Package trace exports profiler data in the Chrome trace-event format
// that TensorBoard's TraceViewer consumes (the trace.json.gz of the
// paper's Fig. 1), and renders text timelines for terminal inspection of
// the Fig. 8 / Fig. 10 views.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/deflate"
	"repro/internal/tf/profiler"
)

// File is a complete trace document as read back by ReadJSONGz.
type File struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
}

// chunk is how many encoded bytes the writer buffers before handing them
// to the compressor.
const chunk = 64 << 10

// WriteJSONGz writes space as trace.json.gz, the document TensorBoard's
// TraceViewer loads: one trace "process" per plane and one thread per
// line, each named by a metadata event, then one "X" complete event per
// XEvent with times converted from virtual nanoseconds to microseconds
// relative to sessionStartNs.
//
// The bytes are exactly those encoding/json writes for the same document
// (events with fields name, ph, ts, dur, pid, tid and sorted args; tid
// omitted on thread metadata when 0, args omitted on events when empty;
// {"traceEvents":null} for a space without planes), but each event is
// appended as typed JSON straight into one reused buffer instead of
// going through reflection, an args map and a second compaction pass.
func WriteJSONGz(w io.Writer, space *profiler.XSpace, sessionStartNs int64) error {
	jw := &jsonWriter{zw: deflate.NewWriter(w), buf: make([]byte, 0, 2*chunk)}
	jw.buf = append(jw.buf, `{"traceEvents":`...)
	for pi, plane := range space.Planes {
		pid := int64(pi + 1)
		jw.meta("process_name", pid, 0, plane.Name)
		for _, line := range plane.Lines {
			jw.meta("thread_name", pid, line.ID, line.Name)
			for i := range line.Events {
				jw.event(&line.Events[i], pid, line.ID, sessionStartNs)
			}
		}
	}
	if jw.events == 0 {
		jw.buf = append(jw.buf, "null"...)
	} else {
		jw.buf = append(jw.buf, ']')
	}
	jw.buf = append(jw.buf, "}\n"...)
	jw.flush()
	// Close also releases the compressor's workers after a write error,
	// which is then the error it returns.
	return jw.zw.Close()
}

// jsonWriter appends typed JSON to a reused buffer and hands the
// compressor whole chunks of it, with a sticky write error. Deflate's
// output is a function of the uncompressed byte stream alone, not of how
// it is split across Write calls, so the chunking never shows in the
// trace bytes.
type jsonWriter struct {
	zw     *deflate.Writer
	buf    []byte
	events int
	err    error
}

// begin opens the traceEvents array or separates the next event.
func (w *jsonWriter) begin() {
	if w.events == 0 {
		w.buf = append(w.buf, '[')
	} else {
		w.buf = append(w.buf, ',')
	}
	w.events++
}

// end closes an event and hands the buffer to the compressor once a
// chunk is full.
func (w *jsonWriter) end() {
	w.buf = append(w.buf, '}')
	if len(w.buf) >= chunk {
		w.flush()
	}
}

func (w *jsonWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.zw.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// meta writes a process_name or thread_name metadata event.
func (w *jsonWriter) meta(kind string, pid, tid int64, name string) {
	w.begin()
	w.buf = append(w.buf, `{"name":"`...)
	w.buf = append(w.buf, kind...)
	w.buf = append(w.buf, `","ph":"M","pid":`...)
	w.buf = strconv.AppendInt(w.buf, pid, 10)
	if tid != 0 {
		w.buf = append(w.buf, `,"tid":`...)
		w.buf = strconv.AppendInt(w.buf, tid, 10)
	}
	w.buf = append(w.buf, `,"args":{"name":`...)
	w.str(name)
	w.buf = append(w.buf, '}')
	w.end()
}

// event writes one "X" complete event.
func (w *jsonWriter) event(ev *profiler.XEvent, pid, tid, sessionStartNs int64) {
	w.begin()
	w.buf = append(w.buf, `{"name":`...)
	w.str(ev.Name)
	w.buf = append(w.buf, `,"ph":"X","ts":`...)
	w.buf = appendFloat(w.buf, float64(ev.StartNs-sessionStartNs)/1e3)
	w.buf = append(w.buf, `,"dur":`...)
	w.buf = appendFloat(w.buf, float64(ev.DurNs)/1e3)
	w.buf = append(w.buf, `,"pid":`...)
	w.buf = strconv.AppendInt(w.buf, pid, 10)
	w.buf = append(w.buf, `,"tid":`...)
	w.buf = strconv.AppendInt(w.buf, tid, 10)
	w.args(ev)
	w.end()
}

// args writes an event's I/O arguments, keys in sorted order, or nothing
// when it has none.
func (w *jsonWriter) args(ev *profiler.XEvent) {
	offset, length, ok := ev.IO()
	if !ok {
		return
	}
	w.buf = append(w.buf, `,"args":{"length":`...)
	w.quotedInt(length)
	w.buf = append(w.buf, `,"offset":`...)
	w.quotedInt(offset)
	w.buf = append(w.buf, '}')
}

func (w *jsonWriter) quotedInt(v int64) {
	w.buf = append(w.buf, '"')
	w.buf = strconv.AppendInt(w.buf, v, 10)
	w.buf = append(w.buf, '"')
}

// str appends s as a JSON string. Names are almost always printable
// ASCII with nothing to escape and are copied as they are; anything else
// goes through encoding/json, so HTML escaping, invalid UTF-8 and
// U+2028/U+2029 come out exactly as it writes them.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				panic(err) // a string always marshals
			}
			w.buf = append(w.buf, b...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// appendFloat appends a finite f formatted as encoding/json formats a
// float64: the shortest 'f' form, or 'e' below 1e-6 and from 1e21 up,
// with a one-digit negative exponent's leading zero dropped (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ReadJSONGz parses a trace.json.gz document. Only whitespace may follow
// the JSON value, and the gzip stream must end cleanly, so a corrupt
// CRC32 or length trailer, a truncated stream and trailing garbage are
// all errors. The stream inflates on a worker goroutine while this one
// parses; the worker has stopped when ReadJSONGz returns.
func ReadJSONGz(r io.Reader) (*File, error) {
	zr, err := deflate.NewPipelinedReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: gzip header: %w", err)
	}
	defer zr.Close()
	dec := json.NewDecoder(zr)
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	// The decoder stops at the closing brace; gzip verifies its trailer
	// only when the stream is read to EOF.
	rest := bufio.NewReader(io.MultiReader(dec.Buffered(), zr))
	for {
		c, err := rest.ReadByte()
		if err == io.EOF {
			return &f, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: after document: %w", err)
		}
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return nil, fmt.Errorf("trace: trailing data %q after document", c)
		}
	}
}

// RenderTimelines renders a text TraceViewer: per plane, per line, events
// in time order with offsets/lengths from their args — the terminal
// equivalent of zooming into Fig. 8's POSIX timelines. maxLinesPerPlane
// and maxEventsPerLine bound the output (0 = unlimited).
func RenderTimelines(space *profiler.XSpace, sessionStartNs int64, maxLinesPerPlane, maxEventsPerLine int) string {
	var b strings.Builder
	for _, plane := range space.Planes {
		fmt.Fprintf(&b, "=== %s ===\n", plane.Name)
		if len(plane.Stats) > 0 {
			keys := make([]string, 0, len(plane.Stats))
			for k := range plane.Stats {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "    %s: %s\n", k, plane.Stats[k])
			}
		}
		lines := plane.Lines
		if maxLinesPerPlane > 0 && len(lines) > maxLinesPerPlane {
			lines = lines[:maxLinesPerPlane]
		}
		for _, line := range lines {
			fmt.Fprintf(&b, "  -- %s\n", line.Name)
			events := line.Events
			if maxEventsPerLine > 0 && len(events) > maxEventsPerLine {
				events = events[:maxEventsPerLine]
			}
			for _, ev := range events {
				start := float64(ev.StartNs-sessionStartNs) / 1e6
				fmt.Fprintf(&b, "     [%12.3fms +%9.3fms] %s", start, float64(ev.DurNs)/1e6, ev.Name)
				if off, n, ok := ev.IO(); ok {
					fmt.Fprintf(&b, " length=%d offset=%d", n, off)
				}
				b.WriteByte('\n')
			}
			if maxEventsPerLine > 0 && len(line.Events) > maxEventsPerLine {
				fmt.Fprintf(&b, "     ... %d more events\n", len(line.Events)-maxEventsPerLine)
			}
		}
		if maxLinesPerPlane > 0 && len(plane.Lines) > maxLinesPerPlane {
			fmt.Fprintf(&b, "  ... %d more timelines\n", len(plane.Lines)-maxLinesPerPlane)
		}
	}
	return b.String()
}
