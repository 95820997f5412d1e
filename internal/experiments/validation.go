package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/tensorboard"
)

// ValidationResult is the Figs. 3/4 artifact: tf-Darshan's per-window
// bandwidth samples against the independent dstat per-second series.
type ValidationResult struct {
	Artifact  string
	DstatHDD  *stats.Series
	TfdTimes  []float64
	TfdMBps   []float64
	Windows   int
	WallSec   float64
	TotalMB   float64
	DstatMean float64
	TfdMean   float64
}

// Render implements Result.
func (r *ValidationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: STREAM bandwidth, dstat (blue line) vs tf-Darshan samples (red dots)\n", strings.ToUpper(r.Artifact[:1])+r.Artifact[1:])
	b.WriteString(tensorboard.BandwidthComparisonText(r.DstatHDD, r.TfdTimes, r.TfdMBps))
	fmt.Fprintf(&b, "windows=%d wall=%.1fs transferred=%.1fMB dstat mean=%.2fMB/s tf-Darshan mean=%.2fMB/s (ratio %.3f)\n",
		r.Windows, r.WallSec, r.TotalMB, r.DstatMean, r.TfdMean, r.ratio())
	return b.String()
}

func (r *ValidationResult) ratio() float64 {
	if r.DstatMean == 0 {
		return 0
	}
	return r.TfdMean / r.DstatMean
}

// Metrics implements Result.
func (r *ValidationResult) Metrics() map[string]float64 {
	return map[string]float64{
		"dstat_mean_MBps": r.DstatMean,
		"tfd_mean_MBps":   r.TfdMean,
		"agreement_ratio": r.ratio(),
		"windows":         float64(r.Windows),
		"wall_seconds":    r.WallSec,
	}
}

// runValidation executes a STREAM row as Table II configures it, with
// manual profiling windows every five steps and dstat sampling in the
// background.
func runValidation(artifact string, c Config, w *paperWorkload) (*ValidationResult, error) {
	setup, err := w.setup(c, runOpts{dstat: true})
	if err != nil {
		return nil, err
	}
	out, err := setup.run()
	if err != nil {
		return nil, err
	}
	m, h := setup.machine, setup.handle
	ts, bw := h.BandwidthSeries()
	res := &ValidationResult{
		Artifact: artifact,
		DstatHDD: setup.sampler.ReadMBps[m.HDD.Name()],
		TfdTimes: ts,
		TfdMBps:  bw,
		Windows:  len(h.Sessions),
		WallSec:  out.wallSeconds,
		TotalMB:  float64(out.history.BytesSeen) / 1e6,
	}
	res.DstatMean = activeMean(res.DstatHDD)
	res.TfdMean = mean(bw)
	return res, nil
}

// activeMean averages the non-idle samples of a series (dstat shows zeros
// after the workload drains).
func activeMean(s *stats.Series) float64 {
	var sum float64
	n := 0
	for _, p := range s.Points {
		if p.V > 0.01 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Fig3 validates tf-Darshan bandwidth on STREAM(ImageNet): batch 128, 16
// threads, prefetch 10, profiling restarted every five steps, dstat in the
// background (paper Fig. 3).
func Fig3(c Config) (*ValidationResult, error) {
	return runValidation("fig3", c, streamImageNet)
}

// Fig4 validates on STREAM(Malware): 50 steps (paper Fig. 4). The paper's
// observation that this bandwidth is roughly 10x the ImageNet STREAM's is
// checked by TestFig4MalwareStreamFasterThanImageNetStream.
func Fig4(c Config) (*ValidationResult, error) {
	return runValidation("fig4", c, streamMalware)
}
