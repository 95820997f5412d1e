package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const (
	clusterGolden     = "cluster_experiments.golden"
	experimentsGolden = "experiments.golden"
)

// clusterIDs are the cluster experiments; every other registered id is a
// paper artifact or a §VII ablation.
var clusterIDs = []string{"ranks", "tune", "prefetch", "failover", "elastic", "dataservice"}

// writeGoldenRun runs id under cfg and appends a header line, its Render()
// and every metric at full float precision (RenderMetrics' four decimals
// could hide virtual-time drift).
func writeGoldenRun(t *testing.T, b *strings.Builder, id, header string, cfg Config) {
	t.Helper()
	r, ok := Find(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", header, err)
	}
	fmt.Fprintf(b, "=== %s\n%s", header, res.Render())
	m := res.Metrics()
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(b, "%s %s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
}

// checkGolden compares got with testdata/name (rewriting it first under
// -update) and reports the first drifted line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with: go test ./internal/experiments -update): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("testdata/%s drifted at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("testdata/%s drifted: %d lines vs %d", name, len(gl), len(wl))
	}
}

// TestClusterExperimentsUpToDate pins the cluster experiments' output
// (writeGoldenRun) for ranks, tune, prefetch, failover, elastic and
// dataservice at two pinned rank counts, then once over the default
// ladders (ranks {1,2,4,8}, elastic's survivors-only {2,4,8}, dataservice
// fleets {2,4,8}; headed ranks=0) run in parallel. Regenerate with go test
// ./internal/experiments -update after an intentional model change.
func TestClusterExperimentsUpToDate(t *testing.T) {
	var b strings.Builder
	for _, cfg := range []Config{
		{Scale: 0.02, Ranks: 2},
		{Scale: 0.02, Ranks: 4},
		{Scale: 0.02, Parallel: -1},
	} {
		for _, id := range clusterIDs {
			writeGoldenRun(t, &b, id, fmt.Sprintf("%s ranks=%d", id, cfg.Ranks), cfg)
		}
	}
	checkGolden(t, clusterGolden, b.String())
}

// TestExperimentsUpToDate pins every other registered experiment, the
// paper's tables and figures and the §VII ablations, at scale 0.02 the
// same way (writeGoldenRun; headed by id).
func TestExperimentsUpToDate(t *testing.T) {
	var b strings.Builder
	for _, r := range All() {
		if !slices.Contains(clusterIDs, r.ID) {
			writeGoldenRun(t, &b, r.ID, r.ID, TestConfig())
		}
	}
	checkGolden(t, experimentsGolden, b.String())
}
