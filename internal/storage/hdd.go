package storage

import (
	"math"

	"repro/internal/sim"
)

// HDDParams configures a rotating disk model.
type HDDParams struct {
	Capacity int64
	// SeqBandwidth is the sustained sequential transfer rate in bytes/s.
	SeqBandwidth float64
	// TrackSkip is the time to reposition within NearDistance bytes
	// (track-to-track seek + settle).
	TrackSkip sim.Duration
	// MinSeek/MaxSeek bound the seek curve; actual seek time scales with
	// the square root of the fraction of the stroke travelled, the usual
	// first-order disk model.
	MinSeek sim.Duration
	MaxSeek sim.Duration
	// AvgRotational is the average rotational latency (half a revolution)
	// charged whenever the head is repositioned.
	AvgRotational sim.Duration
	// NearDistance is the byte distance under which a reposition counts
	// as a track skip rather than a full seek.
	NearDistance int64
	// MetadataSize is the size of one metadata block read (directory
	// entry or inode table block).
	MetadataSize int64
}

// DefaultHDDParams models a 7200rpm 2TB SATA drive like Greendog's.
func DefaultHDDParams() HDDParams {
	return HDDParams{
		Capacity:     2 * TiB,
		SeqBandwidth: 150e6,
		TrackSkip:    sim.FromMillis(0.8),
		MinSeek:      sim.FromMillis(1.0),
		MaxSeek:      sim.FromMillis(14),
		// 7200rpm averages 4.17ms of rotation; NCQ reordering hides part
		// of it under queued load, so the model charges an effective
		// 3.5ms per reposition.
		AvgRotational: sim.FromMillis(3.5),
		NearDistance:  4 * MiB,
		MetadataSize:  4 * KiB,
	}
}

// HDD is a single-actuator rotating disk. All requests serialize on the
// head (FIFO); a request pays a seek whenever it does not continue exactly
// where the previous request left off. This is the mechanism behind the
// paper's Fig. 11a result: interleaving 16 reader threads turns a
// sequential per-file access pattern into a seek-bound one.
type HDD struct {
	tally
	name string
	p    HDDParams
	arm  *sim.Station
	head int64
}

// NewHDD returns an HDD with the given parameters.
func NewHDD(name string, p HDDParams) *HDD {
	if p.Capacity <= 0 || p.SeqBandwidth <= 0 {
		panic("storage: invalid HDD params")
	}
	return &HDD{name: name, p: p, arm: sim.NewStation(1)}
}

// Name implements Device.
func (d *HDD) Name() string { return d.name }

// Capacity implements Device.
func (d *HDD) Capacity() int64 { return d.p.Capacity }

// positionTime returns seek + rotational cost to move the head to pos.
func (d *HDD) positionTime(pos int64) sim.Duration {
	dist := pos - d.head
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	if dist <= d.p.NearDistance {
		return d.p.TrackSkip + d.p.AvgRotational
	}
	frac := math.Sqrt(float64(dist) / float64(d.p.Capacity))
	seek := d.p.MinSeek + sim.Duration(frac*float64(d.p.MaxSeek-d.p.MinSeek))
	return seek + d.p.AvgRotational
}

func (d *HDD) service(t *sim.Thread, pos, length int64) {
	d.arm.Acquire(t)
	t.Sleep(d.positionTime(pos) + bytesOver(length, d.p.SeqBandwidth))
	d.head = pos + length
	d.arm.Release(t)
}

// Read implements Device.
func (d *HDD) Read(t *sim.Thread, pos, length int64) {
	if length <= 0 {
		return
	}
	d.service(t, pos, length)
	d.read(length)
}

// Write implements Device.
func (d *HDD) Write(t *sim.Thread, pos, length int64) {
	if length <= 0 {
		return
	}
	d.service(t, pos, length)
	d.write(length)
}

// Metadata implements Device. A cold lookup reads one metadata block,
// paying the positioning cost to reach it.
func (d *HDD) Metadata(t *sim.Thread, pos int64) {
	d.service(t, pos, d.p.MetadataSize)
	d.meta(d.p.MetadataSize)
}
