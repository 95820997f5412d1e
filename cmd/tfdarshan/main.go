// Command tfdarshan regenerates the paper's tables and figures and
// produces profiling artifacts for the companion tools.
//
// Usage:
//
//	tfdarshan list
//	tfdarshan run [-scale f] <id>...       (ids from "tfdarshan list", or "all")
//	tfdarshan metrics [-scale f] <id>...   (metrics only, no figure body)
//	tfdarshan artifacts [-scale f] [-out dir] <imagenet|malware|distributed>
//	    writes darshan.log, trace.json.gz and profile.pb from a profiled
//	    run (inputs for darshan-parser, dxt-parser and traceviewer);
//	    "distributed" runs the data-parallel cluster job ([-ranks n],
//	    default 4) and writes the merged darshan.log plus per-rank
//	    darshan-rank<r>.log files
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one tfdarshan command and returns its exit status: 2 for a
// usage error, 1 for an unknown id or a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "dataset/step scale factor (1.0 = paper scale)")
	seed := fs.Int64("seed", 0, "shuffle seed perturbation")
	verify := fs.Bool("verify", false, "materialize and checksum all read content (slow; validates the zero-materialization fast path)")
	ranks := fs.Int("ranks", 0, "pin the cluster experiments (ranks, tune, prefetch, failover, elastic) to one rank count and dataservice to one fleet size (0 = their default ladders)")
	parallel := fs.Int("parallel", 1, "simulation kernels to run concurrently on host CPUs (0 = one per core; results are byte-identical at any setting)")
	outDir := fs.String("out", ".", "artifact output directory")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(stderr, "invalid -scale %v (want a finite value > 0)\n", *scale)
		return 2
	}
	if *ranks < 0 {
		fmt.Fprintf(stderr, "invalid -ranks %d\n", *ranks)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "invalid -parallel %d\n", *parallel)
		return 2
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, VerifyContent: *verify, Ranks: *ranks}
	if *parallel == 0 {
		cfg.Parallel = -1 // one worker per core
	} else {
		cfg.Parallel = *parallel
	}

	switch cmd {
	case "artifacts":
		if fs.NArg() != 1 {
			usage(stderr)
			return 2
		}
		if err := writeArtifacts(stdout, cfg, fs.Arg(0), *outDir); err != nil {
			fmt.Fprintf(stderr, "artifacts: %v\n", err)
			return 1
		}
	case "list":
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "  %-17s %s\n", r.ID, r.Description)
		}
	case "run", "metrics":
		ids := fs.Args()
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
			for _, r := range experiments.All() {
				ids = append(ids, r.ID)
			}
		}
		if len(ids) == 0 {
			usage(stderr)
			return 2
		}
		for _, id := range ids {
			if _, ok := experiments.Find(id); !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try: tfdarshan list)\n", id)
				return 1
			}
		}
		start := time.Now() //lint:allow wallclock host-side elapsed time of the run itself, never enters sim results
		print := func(id string, res experiments.Result) {
			runner, _ := experiments.Find(id)
			fmt.Fprintf(stdout, "==== %s — %s (scale %.3f) ====\n",
				runner.ID, runner.Description, cfg.Scale)
			if cmd == "run" {
				fmt.Fprintln(stdout, res.Render())
			}
			fmt.Fprintln(stdout, "metrics:")
			fmt.Fprint(stdout, experiments.RenderMetrics(res.Metrics()))
			fmt.Fprintln(stdout)
		}
		if experiments.Parallelism(cfg.Parallel) <= 1 {
			// Serial: stream each artifact as it completes.
			for _, id := range ids {
				runner, _ := experiments.Find(id)
				res, err := runner.Run(cfg)
				if err != nil {
					fmt.Fprintf(stderr, "%s: %v\n", id, err)
					return 1
				}
				print(id, res)
			}
		} else {
			results, err := experiments.RunAll(cfg, ids)
			if err != nil {
				fmt.Fprintf(stderr, "%v\n", err)
				return 1
			}
			for i, res := range results {
				print(ids[i], res)
			}
		}
		fmt.Fprintf(stdout, "ran %d artifact(s) in %.1fs real (parallel=%d)\n",
			len(ids), time.Since(start).Seconds(), experiments.Parallelism(cfg.Parallel)) //lint:allow wallclock reports real host time to the operator, never enters sim results
	default:
		usage(stderr)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  tfdarshan list
  tfdarshan run       [-scale f] [-seed n] [-verify] [-ranks n] [-parallel n] <id>...|all
  tfdarshan metrics   [-scale f] [-seed n] [-verify] [-ranks n] [-parallel n] <id>...|all
  tfdarshan artifacts [-scale f] [-ranks n] [-out dir] <imagenet|malware|distributed>

Flags come before the ids; -scale must be finite and > 0. "tfdarshan
list" describes every id. The cluster experiments (ranks, tune, prefetch,
failover, elastic, dataservice) sweep a rank ladder; -ranks pins them to
one rank count, and dataservice to one fleet size (e.g.
"tfdarshan run -ranks 4 -scale 0.05 tune")

"artifacts distributed" runs the cluster job at -ranks ranks (default 4)
and writes the merged darshan.log (nprocs > 1, rank -1 shared records,
rank-attributed DXT timeline) plus one darshan-rank<r>.log per rank

-parallel runs independent artifacts (and the sweep points inside them)
concurrently on host CPUs; 0 uses one worker per core. Outputs are
byte-identical to a serial run — kernels share nothing.`)
}

// writeArtifacts runs a profiled case study and writes the Darshan log,
// trace.json.gz and profile.pb for the companion tools. The distributed
// use case writes the merged cluster log plus one darshan-rank<r>.log per
// rank instead of the trace/profile pair.
func writeArtifacts(w io.Writer, cfg experiments.Config, useCase, dir string) error {
	art, err := experiments.ProduceArtifacts(cfg, useCase)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type out struct {
		name string
		data []byte
	}
	files := []out{
		{"darshan.log", art.DarshanLog},
		{"trace.json.gz", art.TraceJSONGz},
		{"profile.pb", art.ProfilePB},
	}
	for r, log := range art.PerRankLogs {
		files = append(files, out{fmt.Sprintf("darshan-rank%d.log", r), log})
	}
	for _, f := range files {
		if f.data == nil {
			continue
		}
		p := filepath.Join(dir, f.name)
		if err := os.WriteFile(p, f.data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d bytes)\n", p, len(f.data))
	}
	return nil
}
