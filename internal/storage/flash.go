package storage

import "repro/internal/sim"

// FlashParams configures a solid-state device model (SATA SSD or NVMe).
type FlashParams struct {
	Capacity int64
	// Bandwidth is the aggregate transfer rate in bytes/s.
	Bandwidth float64
	// Latency is the per-command access latency. Latencies of concurrent
	// commands overlap (up to QueueDepth); transfers share the device
	// bandwidth by serializing on an internal bus.
	Latency sim.Duration
	// QueueDepth bounds concurrent in-flight commands.
	QueueDepth int
	// MetadataSize is the size of one metadata block read.
	MetadataSize int64
}

// DefaultSSDParams models a 1TB SATA SSD like Greendog's.
func DefaultSSDParams() FlashParams {
	return FlashParams{
		Capacity:     1 * TiB,
		Bandwidth:    520e6,
		Latency:      sim.FromMicros(90),
		QueueDepth:   32,
		MetadataSize: 4 * KiB,
	}
}

// DefaultOptaneParams models a 480GB Intel Optane SSD 900p on PCIe, the
// fast tier used for staging in the paper's Fig. 11b.
func DefaultOptaneParams() FlashParams {
	return FlashParams{
		Capacity:     480 * GiB,
		Bandwidth:    2500e6,
		Latency:      sim.FromMicros(10),
		QueueDepth:   64,
		MetadataSize: 4 * KiB,
	}
}

// Flash is a solid-state device. Access latency overlaps across in-flight
// commands; data transfer serializes on the device's internal bandwidth.
// There is no positional penalty, which is what makes it a profitable
// staging target for small-file random access.
type Flash struct {
	dataPath
	name string
	p    FlashParams
}

// NewFlash returns a Flash device with the given parameters.
func NewFlash(name string, p FlashParams) *Flash {
	if p.Capacity <= 0 || p.Bandwidth <= 0 || p.QueueDepth <= 0 {
		panic("storage: invalid flash params")
	}
	return &Flash{name: name, p: p, dataPath: newDataPath(p.QueueDepth, p.Latency, p.Bandwidth)}
}

// Name implements Device.
func (d *Flash) Name() string { return d.name }

// Capacity implements Device.
func (d *Flash) Capacity() int64 { return d.p.Capacity }

// Metadata implements Device.
func (d *Flash) Metadata(t *sim.Thread, pos int64) {
	d.serve(t, d.p.MetadataSize)
	d.meta(d.p.MetadataSize)
}
