package core

import (
	"fmt"
	"slices"

	"repro/internal/tf/profiler"
	"repro/internal/trace"
)

// Artifacts are the files a profiling session leaves behind for
// TensorBoard (paper Fig. 1 and Table I "Outputs: Darshan log, Protobuf"):
// the analysis protobuf and the trace.json.gz TraceViewer document.
type Artifacts struct {
	// ProfilePB is the serialized DarshanProfile message.
	ProfilePB []byte
	// TraceJSONGz is the gzip'd Chrome-trace document of all planes
	// (host, device, tf-Darshan POSIX timelines).
	TraceJSONGz []byte
}

// Export converts a collected session into its on-disk artifacts. Each
// artifact is allocated once at its final size: profile.pb is encoded in
// one sized pass, and trace.json.gz is gathered in fixed-size pages and
// copied once into a slice of its exact length.
func Export(space *profiler.XSpace, analysis *SessionStats, sessionStartNs int64) (*Artifacts, error) {
	if space == nil || analysis == nil {
		return nil, fmt.Errorf("core: nothing to export")
	}
	var gz pageWriter
	if err := trace.WriteJSONGz(&gz, space, sessionStartNs); err != nil {
		return nil, fmt.Errorf("core: export trace: %w", err)
	}
	return &Artifacts{
		ProfilePB:   analysis.Marshal(),
		TraceJSONGz: slices.Concat(gz.pages...),
	}, nil
}

// exportPage is the size of one pageWriter page.
const exportPage = 64 << 10

// pageWriter collects a stream of unknown length in pages of exportPage
// bytes, so nothing written is copied until slices.Concat makes the one
// slice of the stream's final length (a doubling buffer copies and
// discards about as much again as it finally holds).
type pageWriter struct {
	pages [][]byte
}

func (w *pageWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if k := len(w.pages); k == 0 || len(w.pages[k-1]) == exportPage {
			w.pages = append(w.pages, make([]byte, 0, exportPage))
		}
		page := &w.pages[len(w.pages)-1]
		c := copy((*page)[len(*page):exportPage], p)
		*page = (*page)[:len(*page)+c]
		p = p[c:]
	}
	return n, nil
}
