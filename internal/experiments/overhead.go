package experiments

import (
	"fmt"
	"strings"
)

// profMode selects the profiling configuration of an overhead run.
type profMode int

const (
	modeNone profMode = iota // no profiler
	modeTF                   // TensorFlow profiler only
	modeTFD                  // TensorFlow profiler + tf-Darshan tracer
)

// OverheadRow is one workload's bars in Fig. 5.
type OverheadRow struct {
	Workload    string
	Manual      bool // STREAM rows use manual restart-every-5 profiling
	BaselineSec float64
	TFSec       float64
	TFDSec      float64
}

// TFPct returns the TF-profiler-only overhead percentage.
func (r *OverheadRow) TFPct() float64 { return pct(r.TFSec, r.BaselineSec) }

// TFDPct returns the TF-profiler + tf-Darshan overhead percentage.
func (r *OverheadRow) TFDPct() float64 { return pct(r.TFDSec, r.BaselineSec) }

func pct(t, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (t - base) / base * 100
}

// OverheadResult is the Fig. 5 artifact.
type OverheadResult struct {
	Rows []OverheadRow
}

// Render implements Result.
func (r *OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 5: training/streaming time change vs no profiler (automatic callback for\n")
	b.WriteString("use-cases, manual restart-every-5-steps for STREAM)\n")
	fmt.Fprintf(&b, "  %-18s %6s %12s %12s %12s %12s\n",
		"Workload", "mode", "baseline(s)", "TF(s)", "TF+tfd(s)", "tfd overhead")
	for _, row := range r.Rows {
		mode := "auto"
		if row.Manual {
			mode = "manual"
		}
		fmt.Fprintf(&b, "  %-18s %6s %12.2f %12.2f %12.2f  TF %+5.2f%% / tfd %+6.2f%%\n",
			row.Workload, mode, row.BaselineSec, row.TFSec, row.TFDSec, row.TFPct(), row.TFDPct())
	}
	return b.String()
}

// Metrics implements Result.
func (r *OverheadResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Workload+"_tf_pct"] = row.TFPct()
		m[row.Workload+"_tfd_pct"] = row.TFDPct()
	}
	return m
}

// fig5Bars are Fig. 5's bar groups in paper order, under its labels.
var fig5Bars = []struct {
	label string
	w     *paperWorkload
}{
	{"ImageNet", imageNet},
	{"Malware", kaggle},
	{"STREAM(ImageNet)", streamImageNet},
	{"STREAM(Malware)", streamMalware},
}

// Fig5 quantifies profiling overhead for the four workloads under the
// three configurations (paper Fig. 5): batch 128, 10 steps for the two
// use-cases with the automatic TensorBoard callback; the STREAM workloads
// use the manual method restarted every five steps. All workload×mode
// cells are independent machines, so they run concurrently under
// Config.Parallel and fold into rows by index.
func Fig5(c Config) (*OverheadResult, error) {
	modes := []profMode{modeNone, modeTF, modeTFD}
	rows := make([]OverheadRow, len(fig5Bars))
	for i, bar := range fig5Bars {
		rows[i].Workload = bar.label
		// Set once here: the per-cell jobs below run concurrently and must
		// not share field writes.
		rows[i].Manual = bar.w.manualEvery > 0
	}
	err := runIndexed(c.Parallel, len(fig5Bars)*len(modes), func(i int) error {
		bar, mode := fig5Bars[i/len(modes)], modes[i%len(modes)]
		// The TF profiler's host tracer is present once any profiling
		// starts; tf-Darshan is registered only in TFD mode.
		setup, err := bar.w.setup(c, runOpts{
			batch: 128, overhead: true,
			noProfiler: mode == modeNone, noTfDarshan: mode != modeTFD,
		})
		if err != nil {
			return err
		}
		row := &rows[i/len(modes)]
		out, err := setup.run()
		if err != nil {
			return fmt.Errorf("fig5 %s mode %d: %w", bar.label, mode, err)
		}
		switch mode {
		case modeNone:
			row.BaselineSec = out.wallSeconds
		case modeTF:
			row.TFSec = out.wallSeconds
		case modeTFD:
			row.TFDSec = out.wallSeconds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &OverheadResult{Rows: rows}, nil
}

// Fig6 result: checkpoint activity captured on the STDIO layer.
type CheckpointResult struct {
	Checkpoints   int
	TotalFwrites  int64
	StdioFwrites  int64 // as seen by Darshan's STDIO module
	StdioMB       float64
	PosixWrites   int64 // must stay 0: stdio flushes bypass the PLT
	FwritesPerCkp float64
	Panel         string
}

// Render implements Result.
func (r *CheckpointResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 6: tf-Darshan capturing checkpoint write activity on the STDIO layer\n")
	b.WriteString(kvTable([][2]string{
		{"checkpoints written", fmt.Sprint(r.Checkpoints)},
		{"fwrite calls (writer)", fmt.Sprint(r.TotalFwrites)},
		{"fwrite calls (Darshan STDIO)", fmt.Sprint(r.StdioFwrites)},
		{"STDIO bytes written", fmt.Sprintf("%.1f MB", r.StdioMB)},
		{"POSIX writes observed", fmt.Sprint(r.PosixWrites)},
		{"fwrites per checkpoint", fmt.Sprintf("%.1f", r.FwritesPerCkp)},
	}))
	b.WriteString(r.Panel)
	return b.String()
}

// Metrics implements Result.
func (r *CheckpointResult) Metrics() map[string]float64 {
	return map[string]float64{
		"checkpoints":     float64(r.Checkpoints),
		"stdio_fwrites":   float64(r.StdioFwrites),
		"fwrites_per_ckp": r.FwritesPerCkp,
		"posix_writes":    float64(r.PosixWrites),
	}
}

// Fig6 trains the image-classification use-case for 10 steps with a
// checkpoint after every step, all checkpoints kept; Darshan's STDIO
// module captures the ~1,400 fwrite calls (paper Fig. 6).
func Fig6(c Config) (*CheckpointResult, error) {
	setup, err := imageNet.setup(c, runOpts{threads: 2, overhead: true, checkpointEvery: 1})
	if err != nil {
		return nil, err
	}
	out, err := setup.run()
	if err != nil {
		return nil, err
	}
	a := setup.handle.Last
	var panel string
	if a != nil {
		panel = "\n[tf-Darshan] STDIO layer\n" + kvTable([][2]string{
			{"fopens", fmt.Sprint(a.StdioOpens)},
			{"fwrites", fmt.Sprint(a.StdioWrites)},
			{"bytes written", fmt.Sprintf("%.1f MB", float64(a.StdioBytesWritten)/1e6)},
		})
	}
	res := &CheckpointResult{
		Checkpoints:  len(out.ckpt.Results),
		TotalFwrites: out.ckpt.TotalFwrites(),
		Panel:        panel,
	}
	if a != nil {
		res.StdioFwrites = a.StdioWrites
		res.StdioMB = float64(a.StdioBytesWritten) / 1e6
		res.PosixWrites = a.Writes
	}
	if res.Checkpoints > 0 {
		res.FwritesPerCkp = float64(res.StdioFwrites) / float64(res.Checkpoints)
	}
	return res, nil
}
