package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const clusterGolden = "cluster_experiments.golden"

// TestClusterExperimentsUpToDate pins the cluster experiments' output:
// every Render() plus every metric at full float precision (RenderMetrics'
// four decimals could hide virtual-time drift) for ranks, tune, prefetch,
// failover, elastic and dataservice at two pinned rank counts, then once
// over the default ladders (ranks {1,2,4,8}, elastic's survivors-only
// {2,4,8}, dataservice fleets {2,4,8}; headed ranks=0) run in parallel.
// Regenerate with go test ./internal/experiments -update after an
// intentional model change.
func TestClusterExperimentsUpToDate(t *testing.T) {
	var b strings.Builder
	for _, cfg := range []Config{
		{Scale: 0.02, Ranks: 2},
		{Scale: 0.02, Ranks: 4},
		{Scale: 0.02, Parallel: -1},
	} {
		ranks := cfg.Ranks
		for _, id := range []string{"ranks", "tune", "prefetch", "failover", "elastic", "dataservice"} {
			r, ok := Find(id)
			if !ok {
				t.Fatalf("no experiment %q", id)
			}
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", id, ranks, err)
			}
			fmt.Fprintf(&b, "=== %s ranks=%d\n%s", id, ranks, res.Render())
			m := res.Metrics()
			for _, k := range sortedKeys(m) {
				fmt.Fprintf(&b, "%s %s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
			}
		}
	}
	got := []byte(b.String())
	path := filepath.Join("testdata", clusterGolden)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with: go test ./internal/experiments -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("testdata/%s drifted at line %d:\n got: %s\nwant: %s", clusterGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("testdata/%s drifted: %d lines vs %d", clusterGolden, len(gl), len(wl))
	}
}
