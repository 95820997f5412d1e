package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/tensorboard"
)

// TestServesBothRuns builds the example's two profiled runs and serves
// the index page through an in-process server: both runs are listed, and
// threading the input pipeline raised read bandwidth.
func TestServesBothRuns(t *testing.T) {
	runs, err := run()
	if err != nil {
		t.Fatal(err)
	}
	one, eight := runs["imagenet-1threads"], runs["imagenet-8threads"]
	if one == nil || eight == nil {
		t.Fatalf("runs = %v, want imagenet-1threads and imagenet-8threads", runs)
	}
	if eight.Analysis.ReadBandwidthMBps <= one.Analysis.ReadBandwidthMBps {
		t.Fatalf("8 threads read at %.2f MB/s, not faster than 1 thread's %.2f",
			eight.Analysis.ReadBandwidthMBps, one.Analysis.ReadBandwidthMBps)
	}
	srv := httptest.NewServer(tensorboard.NewServer(runs))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %s", resp.Status)
	}
	for name := range runs {
		if !strings.Contains(string(body), name) {
			t.Errorf("index page does not list %s:\n%s", name, body)
		}
	}
}
