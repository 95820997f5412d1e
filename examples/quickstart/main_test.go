package main

import "testing"

// TestQuickstartReadSignature checks the walkthrough's headline: every one
// of the 256 files is opened once and read twice, one data read plus one
// zero-length read at end of file.
func TestQuickstartReadSignature(t *testing.T) {
	pd, err := run()
	if err != nil {
		t.Fatal(err)
	}
	a := pd.Analysis
	if a.Opens != 256 || a.Reads != 512 {
		t.Fatalf("opens=%d reads=%d, want 256 and 512", a.Opens, a.Reads)
	}
	if 2*a.ZeroReads != a.Reads {
		t.Fatalf("%d of %d reads are zero-length, want half", a.ZeroReads, a.Reads)
	}
	if pd.OverviewText() == "" || pd.InputPipelineText() == "" {
		t.Fatal("empty TensorBoard pages")
	}
}
