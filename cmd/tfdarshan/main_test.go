package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRejectsNonsensicalScale(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "Inf", "+Inf", "-Inf"} {
		code, out, errOut := runCLI("metrics", "-scale", scale, "fig7a")
		if code != 2 || out != "" || !strings.Contains(errOut, "invalid -scale") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 2 and an invalid -scale error", scale, code, out, errOut)
		}
	}
}

func TestRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"-ranks", "invalid -ranks -1"},
		{"-parallel", "invalid -parallel -1"},
	} {
		code, out, errOut := runCLI("metrics", tc.flag, "-1", "table2")
		if code != 2 || out != "" || !strings.Contains(errOut, tc.want) {
			t.Errorf("%s -1: exit %d, stdout %q, stderr %q; want exit 2 and %q", tc.flag, code, out, errOut, tc.want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	for _, args := range [][]string{
		{"metrics", "-scale", "0.05", "fig99"},
		// Flag parsing stops at the first id, so a trailing flag is an id.
		{"metrics", "table2", "-scale", "0.05"},
	} {
		code, out, errOut := runCLI(args...)
		if code != 1 || out != "" || !strings.Contains(errOut, "unknown experiment") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 1 and an unknown experiment error", args, code, out, errOut)
		}
	}
}

// TestMetricsBlock checks that metrics prints the header, the experiment's
// metrics block and the run summary, and no rendered body.
func TestMetricsBlock(t *testing.T) {
	code, out, errOut := runCLI("metrics", "-scale", "0.02", "table2")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	res, err := experiments.Table2(experiments.Config{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	block := experiments.RenderMetrics(res.Metrics())
	want := "==== table2 — dataset and configuration characteristics (scale 0.020) ====\nmetrics:\n" +
		block + "\nran 1 artifact(s) in "
	if !strings.HasPrefix(out, want) || !strings.Contains(block, "  ImageNet_files ") {
		t.Fatalf("stdout:\n%s\nwant prefix:\n%s", out, want)
	}
}
