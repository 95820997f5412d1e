// Package dstat reimplements the role dstat plays in the paper's
// evaluation: an independent background sampler of per-device disk
// activity, used to validate tf-Darshan's bandwidth numbers (Figs. 3/4)
// and to compare whole-run disk activity across configurations (Fig. 12).
package dstat

import (
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Sampler polls device counters every interval of virtual time and
// records per-interval activity series.
type Sampler struct {
	devices []storage.Device
	stopped bool

	last map[string]storage.Counters
	// ReadMBps has one series per device (MB per second read).
	ReadMBps map[string]*stats.Series
	// WriteMBps has one series per device.
	WriteMBps map[string]*stats.Series
	// TotalMiB has one series per device: MiB transferred per interval
	// (read+write), the Fig. 12 y-axis.
	TotalMiB map[string]*stats.Series
}

// interval is the sampling period, dstat's default of one second.
const interval = sim.Second

// New creates a sampler over devices.
func New(devices []storage.Device) *Sampler {
	return &Sampler{
		devices:   devices,
		last:      make(map[string]storage.Counters),
		ReadMBps:  make(map[string]*stats.Series),
		WriteMBps: make(map[string]*stats.Series),
		TotalMiB:  make(map[string]*stats.Series),
	}
}

// Start spawns the background sampling thread. The sampler runs until
// Stop is called; it must be stopped before the simulation can finish.
func (s *Sampler) Start(k *sim.Kernel) {
	for _, d := range s.devices {
		s.last[d.Name()] = d.Counters()
		s.ReadMBps[d.Name()] = &stats.Series{Name: d.Name() + ":readMBps"}
		s.WriteMBps[d.Name()] = &stats.Series{Name: d.Name() + ":writeMBps"}
		s.TotalMiB[d.Name()] = &stats.Series{Name: d.Name() + ":MiB"}
	}
	k.Spawn("dstat", func(t *sim.Thread) {
		for !s.stopped {
			t.Sleep(interval)
			s.sample(t)
		}
	})
}

// Stop ends sampling after the current interval.
func (s *Sampler) Stop() { s.stopped = true }

func (s *Sampler) sample(t *sim.Thread) {
	now := sim.Seconds(t.Now())
	secs := sim.Seconds(interval)
	for _, d := range s.devices {
		cur := d.Counters()
		delta := cur.Sub(s.last[d.Name()])
		s.last[d.Name()] = cur
		s.ReadMBps[d.Name()].Add(now, float64(delta.BytesRead)/1e6/secs)
		s.WriteMBps[d.Name()].Add(now, float64(delta.BytesWritten)/1e6/secs)
		s.TotalMiB[d.Name()].Add(now, float64(delta.BytesRead+delta.BytesWritten)/float64(1<<20))
	}
}
