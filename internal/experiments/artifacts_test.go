package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/darshan"
	"repro/internal/libc"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

func TestProduceArtifactsRoundTrip(t *testing.T) {
	art, err := ProduceArtifacts(Config{Scale: 0.01}, "malware")
	if err != nil {
		t.Fatal(err)
	}
	// The darshan log parses and its totals are self-consistent.
	log, err := darshan.ReadLog(bytes.NewReader(art.DarshanLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Posix) == 0 {
		t.Fatal("no posix records in log")
	}
	var reads, zeroBucket int64
	for i := range log.Posix {
		reads += log.Posix[i].Counters[darshan.POSIX_READS]
		zeroBucket += log.Posix[i].Counters[darshan.POSIX_SIZE_READ_0_100]
	}
	if reads == 0 || zeroBucket == 0 {
		t.Fatalf("log totals: reads=%d zero=%d", reads, zeroBucket)
	}
	// Every file name resolves.
	for i := range log.Posix {
		if log.Names[log.Posix[i].ID] == "" {
			t.Fatal("unresolvable record id in log")
		}
	}

	// The protobuf parses; it covers the profiling window, while the log
	// covers the whole application (Table I's "Reporting" row), so its
	// counts are bounded by — and close to — the log totals.
	pb, err := proto.UnmarshalDarshanProfile(art.ProfilePB)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Reads > reads {
		t.Fatalf("window reads=%d exceed whole-run reads=%d", pb.Reads, reads)
	}
	if pb.Reads*5 < reads*4 {
		t.Fatalf("window reads=%d, whole-run=%d: window too small", pb.Reads, reads)
	}
	if pb.ZeroReads == 0 || pb.ReadBandwidthMBps <= 0 {
		t.Fatalf("proto: %+v", pb)
	}

	// The trace document parses and contains pread events.
	doc, err := trace.ReadJSONGz(bytes.NewReader(art.TraceJSONGz))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	if _, err := ProduceArtifacts(Config{Scale: 0.01}, "nonsense"); err == nil {
		t.Fatal("unknown use case accepted")
	}
}

// TestPreloadAndRuntimeAttachAgree runs the identical workload under
// classic LD_PRELOAD Darshan and under tf-Darshan runtime attachment: the
// POSIX counters must be identical (the "same Darshan logging
// capabilities" row of Table I).
func TestPreloadAndRuntimeAttachAgree(t *testing.T) {
	workloadFn := func(m *platform.Machine) {
		for i := 0; i < 24; i++ {
			m.FS.CreateFile(fmt.Sprintf("%s/eq%03d", platform.GreendogHDDPath, i), int64(10_000*(i+1)))
		}
		m.K.Spawn("app", func(th *sim.Thread) {
			buf := make([]byte, 64*1024)
			for i := 0; i < 24; i++ {
				p := fmt.Sprintf("%s/eq%03d", platform.GreendogHDDPath, i)
				fd, err := m.Env.Libc.Open(th, p, vfs.O_RDONLY)
				if err != nil {
					t.Error(err)
					return
				}
				var off int64
				for {
					n, _ := m.Env.Libc.Pread(th, fd, buf, int64(len(buf)), off)
					if n == 0 {
						break
					}
					off += int64(n)
				}
				m.Env.Libc.Close(th, fd)
			}
		})
		if err := m.K.Run(); err != nil {
			t.Fatal(err)
		}
	}

	pre := platform.NewGreendog(platform.Options{PreloadDarshan: true})
	workloadFn(pre)

	att := platform.NewGreendog(platform.Options{})
	h := registerTfDarshan(att)
	if err := h.Wrapper().Attach(); err != nil {
		t.Fatal(err)
	}
	workloadFn(att)

	preRecs := pre.Darshan.Posix.Records()
	attRecs := att.Darshan.Posix.Records()
	if len(preRecs) != len(attRecs) {
		t.Fatalf("record counts differ: %d vs %d", len(preRecs), len(attRecs))
	}
	attByID := map[uint64][darshan.PosixNumCounters]int64{}
	for _, rec := range attRecs {
		attByID[rec.ID] = rec.Counters
	}
	for _, rec := range preRecs {
		other, ok := attByID[rec.ID]
		if !ok {
			t.Fatalf("record %d missing under attach", rec.ID)
		}
		for c := darshan.PosixCounter(0); c < darshan.PosixNumCounters; c++ {
			if rec.Counters[c] != other[c] {
				name, _ := pre.Darshan.LookupName(rec.ID)
				t.Fatalf("%s %v: preload=%d attach=%d", name, c, rec.Counters[c], other[c])
			}
		}
	}
	_ = libc.IOSymbols
}
