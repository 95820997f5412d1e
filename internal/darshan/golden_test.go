package darshan

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// -update regenerates the committed reference logs under testdata/ from
// the deterministic builder below (go test ./internal/darshan -update).
var update = flag.Bool("update", false, "rewrite testdata reference logs")

const singleRefLog = "single.darshan.log"

// buildReferenceLog runs a small fully deterministic instrumented
// workload — two TF-style whole-file reads plus an STDIO checkpoint write
// — and serializes it. It is the byte source of testdata/single.darshan.log,
// the committed input of the cmd/darshan-parser and cmd/dxt-parser golden
// tests.
func buildReferenceLog(t *testing.T) []byte {
	t.Helper()
	r := newRig(DefaultConfig())
	r.fs.CreateFile("/data/train/img000.jpg", 88*1024)
	r.fs.CreateFile("/data/train/img001.jpg", 132*1024)
	r.fs.CreateFile("/data/shard0.bytes", 3<<20)
	r.run(t, func(th *sim.Thread) {
		readWholeFileTFStyle(th, r.c, "/data/train/img000.jpg", 1<<20)
		readWholeFileTFStyle(th, r.c, "/data/train/img001.jpg", 1<<20)
		readWholeFileTFStyle(th, r.c, "/data/shard0.bytes", 1<<20)
		st, err := r.c.Fopen(th, "/data/model.ckpt", "w")
		if err != nil {
			t.Error(err)
			return
		}
		r.c.Fwrite(th, st, make([]byte, 8192))
		r.c.Fclose(th, st)
	})
	var buf bytes.Buffer
	if err := writeLog(&buf, r.rt, sim.Seconds(r.k.Now())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReferenceLogUpToDate regenerates the committed single-process
// reference log and fails if the bytes drifted from testdata/ — the
// committed artifact must always be exactly what the current writer
// produces. Run with -update to refresh after an intentional format
// change.
func TestReferenceLogUpToDate(t *testing.T) {
	got := buildReferenceLog(t)
	path := filepath.Join("testdata", singleRefLog)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing reference log (regenerate with: go test ./internal/darshan -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("testdata/%s drifted from generated output (%d vs %d bytes); "+
			"if the format change is intentional, re-run with -update and refresh the parser goldens",
			singleRefLog, len(want), len(got))
	}
	// The committed artifact must parse as a single-process log.
	log, err := ReadLog(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if log.Merged || log.NProcs != 1 || len(log.Posix) != 3 || len(log.Stdio) != 1 {
		t.Fatalf("reference log shape: merged %v nprocs %d posix %d stdio %d",
			log.Merged, log.NProcs, len(log.Posix), len(log.Stdio))
	}
}
