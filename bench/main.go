// Command bench is the simulator's end-to-end and per-layer benchmark. It
// runs one of four composed workloads for a fixed wall time, one fresh
// child process per repetition, checks every repetition's simulated
// results, and prints each metric with its unit, median, min, max and
// sample count; the last line is one JSON object with the medians.
//
// Run it from the root of the checkout (README.md has the details):
//
//	bash bench/run.sh --workload cluster-prefetch --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --update             # regenerate bench/testdata
//	bash bench/run.sh compare old.jsonl new.jsonl
package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 0, "workload seed; 0 is the paper default and is checked against bench/testdata")
	seconds := flag.Int("seconds", 20, "how long to keep starting repetitions")
	trace := flag.Int("trace", 0, "1 runs the traced set: CPU profiles and spans give the per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	update := flag.Bool("update", false, "regenerate the seed-0 references in bench/testdata and exit")
	child := flag.Int("child", -1, "run repetition N in this process and print it as JSON (used by the parent)")
	profile := flag.Bool("profile", false, "with -child: take a CPU profile")
	flag.Parse()

	if *update {
		if err := updateReferences(*name, "bench/testdata"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child >= 0 {
		r := runRep(w, *seed, 1, *child, refRuns, *profile)
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	res, err := runBenchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// minReps is the fewest repetitions a run makes, however short -seconds is.
const minReps = 3

// repTimeout bounds one repetition's child process.
const repTimeout = 120 * time.Second

// metricValue and runOutput are the JSON object the benchmark prints last.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runBenchmark starts repetitions of w, one child process at a time, until
// d has passed (and at least minReps ran), checks them and prints the
// metrics to out. In a traced run two of every three repetitions take a
// CPU profile, so a 20 s run collects at least 1,000 samples: the profiled
// ones give the CPU shares, the others everything else, and the two
// together the tracing overhead.
func runBenchmark(w scenario, seed int64, d time.Duration, trace bool, traceDir string, out io.Writer) (runOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return runOutput{}, err
	}
	var ref *outcome
	if seed == 0 {
		if ref, err = loadReference(w.name); err != nil {
			return runOutput{}, err
		}
	}
	start := time.Now()
	var reps []repResult
	for rep := 0; rep < minReps || time.Since(start) < d; rep++ {
		reps = append(reps, runChild(exe, w.name, seed, rep, trace && rep%3 != 2))
	}
	checkReps(reps, ref)

	res := runOutput{Attempted: len(reps), Metrics: map[string]metricValue{}}
	for _, r := range reps {
		if r.Err != "" {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s seed %d repetition %d failed: %s\n", w.name, seed, r.Rep, r.Err)
		}
	}
	res.Correct = res.Failed == 0
	var table []tableRow
	if trace {
		table = layerMetrics(reps)
		if err := writeSpans(traceDir, w.name, seed, reps); err != nil {
			return runOutput{}, err
		}
	} else {
		table = endToEndMetrics(reps)
	}
	fmt.Fprintf(out, "%s seed %d: %d repetitions, %d failed\n", w.name, seed, res.Attempted, res.Failed)
	fmt.Fprintf(out, "%-36s %-6s %14s %14s %14s %4s\n", "metric", "unit", "median", "min", "max", "n")
	for _, row := range table {
		if len(row.samples) == 0 {
			continue
		}
		s := sorted(row.samples)
		v := median(s)
		res.Metrics[row.name] = metricValue{Value: v, Unit: row.unit}
		fmt.Fprintf(out, "%-36s %-6s %14.6g %14.6g %14.6g %4d\n", row.name, row.unit, v, s[0], s[len(s)-1], len(s))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return runOutput{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// runChild runs one repetition in a fresh process of this binary.
func runChild(exe, name string, seed int64, rep int, profile bool) repResult {
	failed := func(format string, args ...any) repResult {
		return repResult{Rep: rep, Profiled: profile, Err: fmt.Sprintf(format, args...)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-child", strconv.Itoa(rep), "-profile="+strconv.FormatBool(profile))
	// The child dies with the parent, so a killed run leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		return failed("timed out after %v", repTimeout)
	}
	if err != nil {
		return failed("child process: %v: %s", err, lastLine(stderr.Bytes()))
	}
	var r repResult
	if err := json.Unmarshal([]byte(lastLine(stdout.Bytes())), &r); err != nil {
		return failed("child output: %v", err)
	}
	return r
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// checkReps fails every repetition whose outcome differs from the first
// successful one, or at seed 0 from the committed reference.
func checkReps(reps []repResult, ref *outcome) {
	var first *outcome
	for i := range reps {
		r := &reps[i]
		if r.Err != "" {
			continue
		}
		if ref != nil {
			if d := ref.diff(r.Outcome); len(d) > 0 {
				r.Err = "differs from the committed reference (reference vs run): " + strings.Join(d, "; ")
				continue
			}
		}
		if first == nil {
			first = r.Outcome
		} else if d := first.diff(r.Outcome); len(d) > 0 {
			r.Err = "differs from an earlier repetition of the same seed: " + strings.Join(d, "; ")
		}
	}
}

// tableRow is one reported metric and its per-repetition samples.
type tableRow struct {
	name, unit string
	samples    []float64
}

// good returns the successful repetitions with the given profiling state.
func good(reps []repResult, profiled bool) []repResult {
	var out []repResult
	for _, r := range reps {
		if r.Err == "" && r.Profiled == profiled {
			out = append(out, r)
		}
	}
	return out
}

func collect(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func ioOps(o *outcome) float64 {
	var n float64
	for _, k := range ioOpCounts {
		n += o.Counts[k]
	}
	return n
}

// speed converts a repetition's raw host seconds to reference seconds.
func speed(r repResult) float64 { return refNominal / r.RefS }

func endToEndMetrics(reps []repResult) []tableRow {
	ok := good(reps, false)
	by := map[string]func(repResult) float64{
		"host_s":        func(r repResult) float64 { return r.HostS * speed(r) },
		"host_cpu_s":    func(r repResult) float64 { return r.HostCPUS * speed(r) },
		"setup_s":       func(r repResult) float64 { return r.SetupS * speed(r) },
		"sim_ops_per_s": func(r repResult) float64 { return ioOps(r.Outcome) / (r.HostS * speed(r)) },
		"alloc_mb":      func(r repResult) float64 { return r.AllocMB },
		"peak_rss_mb":   func(r repResult) float64 { return r.PeakRSSMB },
	}
	rows := make([]tableRow, len(endToEnd))
	for i, m := range endToEnd {
		rows[i] = tableRow{m.Name, m.Unit, collect(ok, by[m.Name])}
	}
	return rows
}

// spanNames are the calls into the layers the benchmark times.
var spanNames = []string{
	"platform.boot", "workload.build", "sim.run", "core.export",
	"tensorboard.render", "darshan.merge", "darshan.log_write", "darshan.log_read",
}

// perSpan are the per-unit costs: a span's time divided by the count of
// the work it did.
var perSpan = []struct {
	name, span string
	work       func(*outcome) float64
}{
	{"sim.run.ns_per_io_op", "sim.run", ioOps},
	{"darshan.merge.ns_per_segment", "darshan.merge", count("dxt.segments")},
	{"darshan.log_write.ns_per_segment", "darshan.log_write", count("dxt.segments")},
	{"darshan.log_read.ns_per_segment", "darshan.log_read", count("dxt.segments")},
	{"core.export.ns_per_event", "core.export", count("trace.events")},
}

func count(name string) func(*outcome) float64 {
	return func(o *outcome) float64 { return o.Counts[name] }
}

// countMetrics are the exact results reported in a traced run, with their
// units. They are part of the reference check, so no host-only change may
// move them.
var countMetrics = []metricDef{
	{Name: "io.posix_opens", Unit: "count", Better: "lower"},
	{Name: "io.posix_reads", Unit: "count", Better: "lower"},
	{Name: "io.posix_writes", Unit: "count", Better: "lower"},
	{Name: "io.stdio_opens", Unit: "count", Better: "lower"},
	{Name: "io.stdio_reads", Unit: "count", Better: "lower"},
	{Name: "io.stdio_writes", Unit: "count", Better: "lower"},
	{Name: "io.bytes_read", Unit: "B", Better: "lower"},
	{Name: "io.bytes_written", Unit: "B", Better: "lower"},
	{Name: "dxt.segments", Unit: "count", Better: "lower"},
	{Name: "log.bytes", Unit: "B", Better: "lower"},
	{Name: "trace.bytes", Unit: "B", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "virt_s", Unit: "s", Better: "lower"},
	{Name: "cache.local_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.peer_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.pfs_rate", Unit: "ratio", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "dataservice.dedup_x", Unit: "x", Better: "higher"},
	{Name: "dataservice.wait_s", Unit: "s", Better: "lower"},
	{Name: "dispatcher.busy_s", Unit: "s", Better: "lower"},
	{Name: "failover.restore_bytes", Unit: "B", Better: "lower"},
	{Name: "failover.downtime_s", Unit: "s", Better: "lower"},
}

func spanSeconds(r repResult, name string) float64 {
	var s float64
	for _, sp := range r.Spans {
		if sp.Name == name {
			s += sp.seconds()
		}
	}
	return s
}

// perLayerNames lists every per-layer metric with its unit, in report
// order; a traced run reports all of them, 0 where a workload does not
// exercise the layer.
func perLayerNames() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{Name: "cpu_share." + l, Unit: "ratio", Better: "lower"})
	}
	out = append(out, metricDef{Name: "cpu.samples", Unit: "count", Better: "lower"})
	for _, s := range spanNames {
		out = append(out, metricDef{Name: "span." + s + "_s", Unit: "s", Better: "lower"})
	}
	for _, p := range perSpan {
		out = append(out, metricDef{Name: p.name, Unit: "ns", Better: "lower"})
	}
	out = append(out, countMetrics...)
	return append(out,
		metricDef{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "go.mallocs", Unit: "count", Better: "lower"},
		metricDef{Name: "raw.host_s", Unit: "s", Better: "lower"},
		metricDef{Name: "raw.host_cpu_s", Unit: "s", Better: "lower"},
		metricDef{Name: "raw.setup_s", Unit: "s", Better: "lower"},
		metricDef{Name: "raw.ref_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"})
}

func layerMetrics(reps []repResult) []tableRow {
	profiled, plain := good(reps, true), good(reps, false)
	values := map[string][]float64{}

	var total int64
	samples := map[string]int64{}
	for _, r := range profiled {
		for l, n := range r.Layers {
			samples[l] += n
			total += n
		}
	}
	if total > 0 {
		for _, l := range layers {
			values["cpu_share."+l] = []float64{float64(samples[l]) / float64(total)}
		}
		values["cpu.samples"] = []float64{float64(total)}
	}
	if len(profiled) > 0 && len(plain) > 0 {
		norm := func(r repResult) float64 { return r.HostS * speed(r) }
		on, off := median(collect(profiled, norm)), median(collect(plain, norm))
		values["trace.overhead_frac"] = []float64{on/off - 1}
	}
	if len(plain) > 0 {
		for _, s := range spanNames {
			values["span."+s+"_s"] = collect(plain, func(r repResult) float64 { return spanSeconds(r, s) })
		}
		for _, p := range perSpan {
			values[p.name] = collect(plain, func(r repResult) float64 {
				n := p.work(r.Outcome)
				if n == 0 {
					return 0
				}
				return spanSeconds(r, p.span) * 1e9 / n
			})
		}
		for _, c := range countMetrics {
			values[c.Name] = []float64{plain[0].Outcome.Counts[c.Name]}
		}
		values["go.gc_cycles"] = collect(plain, func(r repResult) float64 { return r.GCCycles })
		values["go.mallocs"] = collect(plain, func(r repResult) float64 { return r.Mallocs })
		values["raw.host_s"] = collect(plain, func(r repResult) float64 { return r.HostS })
		values["raw.host_cpu_s"] = collect(plain, func(r repResult) float64 { return r.HostCPUS })
		values["raw.setup_s"] = collect(plain, func(r repResult) float64 { return r.SetupS })
		values["raw.ref_s"] = collect(plain, func(r repResult) float64 { return r.RefS })
	}
	var rows []tableRow
	for _, m := range perLayerNames() {
		rows = append(rows, tableRow{m.Name, m.Unit, values[m.Name]})
	}
	return rows
}

// writeSpans writes every repetition's spans as one JSON array.
func writeSpans(dir, name string, seed int64, reps []repResult) error {
	var all []span
	for _, r := range reps {
		all = append(all, r.Spans...)
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.seed%d.spans.json", name, seed)), b, 0o644)
}

//go:embed testdata/*.json
var referenceFiles embed.FS

// reference is a committed seed-0 outcome.
type reference struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	outcome
}

func loadReference(name string) (*outcome, error) {
	b, err := referenceFiles.ReadFile("testdata/" + name + ".seed0.json")
	if err != nil {
		return nil, fmt.Errorf("no committed reference for %s (run with --update): %w", name, err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference for %s: %w", name, err)
	}
	return &ref.outcome, nil
}

// updateReferences runs the named workload, or all of them, once at seed
// 0 in this process and writes the outcomes to dir.
func updateReferences(name, dir string) error {
	if _, ok := findWorkload(name); name != "" && !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	for _, w := range workloads {
		if name != "" && w.name != name {
			continue
		}
		r := runRep(w, 0, 1, 0, 0, false)
		if r.Err != "" {
			return fmt.Errorf("%s: %s", w.name, r.Err)
		}
		b, err := json.MarshalIndent(reference{Workload: w.name, outcome: *r.Outcome}, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, w.name+".seed0.json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// compareMain is `bench compare OLD NEW`: each file holds the output of
// several runs of one workload (the JSON result lines; other lines are
// skipped), paired by order. It exits 1 if any metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare OLD NEW")
		return 2
	}
	var sides [2][]runOutput
	for i, path := range args {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sides[i] = runs
	}
	regressed, err := compareRuns(os.Stdout, sides[0], sides[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// readRuns reads the result lines of a file of benchmark output.
func readRuns(path string) ([]runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runOutput
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if !bytes.HasPrefix(line, []byte("{")) {
			continue
		}
		var r runOutput
		if err := json.Unmarshal(line, &r); err != nil || r.Metrics == nil {
			continue
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines", path)
	}
	return runs, nil
}
