// Package storage provides discrete-event models of the storage hardware
// used in the paper's evaluation: the Greendog workstation's HDD, SATA SSD
// and Intel Optane 900p NVMe drive, and Kebnekaise's Lustre parallel file
// system. Devices charge service time to the calling simulated thread and
// keep cumulative activity counters that the dstat sampler reads.
//
// Every device queues its requests through sim.Station service stations:
// the HDD's one arm, the metadata server's RPC slots, and the data path
// that Flash and Lustre's object servers share (command slots, then a
// one-server transfer bus). A device's busy time is what its stations
// integrate, so a utilization is busy server-time ÷ (servers × wall) on
// one station, at most 1.
package storage

import "repro/internal/sim"

// Counters is a snapshot of cumulative device activity. The dstat sampler
// differences successive snapshots to produce per-second activity series
// (paper Figs. 3, 4 and 12).
type Counters struct {
	ReadOps      int64
	WriteOps     int64
	MetaOps      int64
	BytesRead    int64
	BytesWritten int64
}

// Sub returns c - o, the activity between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		ReadOps:      c.ReadOps - o.ReadOps,
		WriteOps:     c.WriteOps - o.WriteOps,
		MetaOps:      c.MetaOps - o.MetaOps,
		BytesRead:    c.BytesRead - o.BytesRead,
		BytesWritten: c.BytesWritten - o.BytesWritten,
	}
}

// Device is a storage device servicing positioned reads and writes plus
// cold metadata lookups. Positions are absolute device byte addresses
// assigned by the VFS allocator; length is in bytes. Calls block the
// simulated thread for the modelled service time.
type Device interface {
	// Name identifies the device in dstat output (e.g. "sda").
	Name() string
	// Read services a read of length bytes at device position pos.
	Read(t *sim.Thread, pos, length int64)
	// Write services a write of length bytes at device position pos.
	Write(t *sim.Thread, pos, length int64)
	// Metadata services a cold metadata lookup (directory entry or inode
	// read) near device position pos.
	Metadata(t *sim.Thread, pos int64)
	// Counters returns a snapshot of cumulative activity.
	Counters() Counters
	// Capacity returns the device size in bytes.
	Capacity() int64
}

// tally is the shared counter bookkeeping embedded by device models.
type tally struct {
	c Counters
}

func (ta *tally) read(n int64) {
	ta.c.ReadOps++
	ta.c.BytesRead += n
}

func (ta *tally) write(n int64) {
	ta.c.WriteOps++
	ta.c.BytesWritten += n
}

func (ta *tally) meta(n int64) {
	ta.c.MetaOps++
	ta.c.BytesRead += n
}

// Counters returns a snapshot of cumulative activity.
func (ta *tally) Counters() Counters { return ta.c }

// dataPath is the data path of Flash and of Lustre's object servers, with
// their Read and Write. A command holds one of the path's slots for the
// access latency and the transfer, so latencies overlap across slots, and
// transfers serialize on a one-server bus that carries the bandwidth.
type dataPath struct {
	tally
	slots, bus *sim.Station
	latency    sim.Duration
	bandwidth  float64
}

func newDataPath(slots int, latency sim.Duration, bandwidth float64) dataPath {
	return dataPath{slots: sim.NewStation(slots), bus: sim.NewStation(1), latency: latency, bandwidth: bandwidth}
}

// Read implements Device.
func (p *dataPath) Read(t *sim.Thread, pos, length int64) {
	if length <= 0 {
		return
	}
	p.serve(t, length)
	p.read(length)
}

// Write implements Device.
func (p *dataPath) Write(t *sim.Thread, pos, length int64) {
	if length <= 0 {
		return
	}
	p.serve(t, length)
	p.write(length)
}

func (p *dataPath) serve(t *sim.Thread, length int64) {
	p.slots.Acquire(t)
	t.Sleep(p.latency)
	p.bus.Serve(t, bytesOver(length, p.bandwidth))
	p.slots.Release(t)
}

// Stations returns the path's slot and bus stations.
func (p *dataPath) Stations() []*sim.Station { return []*sim.Station{p.slots, p.bus} }

// bytesOver converts a byte count and a bytes-per-second rate into a
// duration.
func bytesOver(n int64, bytesPerSec float64) sim.Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / bytesPerSec * float64(sim.Second))
}

// MiB and friends are byte-size helpers used across device parameters.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)
