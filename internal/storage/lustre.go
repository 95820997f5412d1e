package storage

import "repro/internal/sim"

// LustreParams configures the Lustre parallel file system model used for
// the Kebnekaise experiments (paper Fig. 7). The decisive property for the
// ImageNet workload is that every file open costs a metadata-server RPC
// whose latency a single client thread cannot hide, while the server side
// can service several RPCs concurrently — so threading the input pipeline
// buys roughly MDSConcurrency× more throughput on small files.
type LustreParams struct {
	Capacity int64
	// MDSLatency is the round-trip time of one metadata RPC (open/stat)
	// against the shared production metadata server.
	MDSLatency sim.Duration
	// MDSConcurrency is the number of metadata RPCs the server services
	// concurrently for this client.
	MDSConcurrency int
	// OSSLatency is the per-RPC latency of an object storage read.
	OSSLatency sim.Duration
	// OSSBandwidth is the aggregate object-server bandwidth in bytes/s.
	OSSBandwidth float64
	// OSSConcurrency bounds in-flight data RPCs.
	OSSConcurrency int
}

// DefaultLustreParams models the shared Lustre system at HPC2N as seen
// from one Kebnekaise compute node.
func DefaultLustreParams() LustreParams {
	return LustreParams{
		Capacity:       500 * TiB,
		MDSLatency:     sim.FromMillis(26),
		MDSConcurrency: 7,
		OSSLatency:     sim.FromMillis(1.2),
		OSSBandwidth:   1200e6,
		OSSConcurrency: 32,
	}
}

// Lustre models a networked parallel file system: metadata RPCs go to a
// bounded-concurrency MDS; data RPCs take the object servers' data path,
// paying a small latency and sharing OSS bandwidth.
type Lustre struct {
	dataPath
	name string
	p    LustreParams
	mds  *sim.Station
}

// NewLustre returns a Lustre device with the given parameters.
func NewLustre(name string, p LustreParams) *Lustre {
	if p.Capacity <= 0 || p.OSSBandwidth <= 0 || p.MDSConcurrency <= 0 || p.OSSConcurrency <= 0 {
		panic("storage: invalid lustre params")
	}
	return &Lustre{
		dataPath: newDataPath(p.OSSConcurrency, p.OSSLatency, p.OSSBandwidth),
		name:     name,
		p:        p,
		mds:      sim.NewStation(p.MDSConcurrency),
	}
}

// Name implements Device.
func (d *Lustre) Name() string { return d.name }

// MDS returns the metadata server's station; Stations returns the object
// servers'.
func (d *Lustre) MDS() *sim.Station { return d.mds }

// Capacity implements Device.
func (d *Lustre) Capacity() int64 { return d.p.Capacity }

// Metadata implements Device. One MDS RPC.
func (d *Lustre) Metadata(t *sim.Thread, pos int64) {
	d.mds.Serve(t, d.p.MDSLatency)
	d.meta(0)
}
