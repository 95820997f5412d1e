package core

import (
	"bytes"
	"fmt"

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

// Export converts a collected session into its on-disk artifacts.
func Export(space *profiler.XSpace, analysis *SessionStats, sessionStartNs int64) (*Artifacts, error) {
	if space == nil || analysis == nil {
		return nil, fmt.Errorf("core: nothing to export")
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONGz(&buf, space, sessionStartNs); err != nil {
		return nil, fmt.Errorf("core: export trace: %w", err)
	}
	return &Artifacts{
		ProfilePB:   analysis.ToProto().Marshal(),
		TraceJSONGz: buf.Bytes(),
	}, nil
}
