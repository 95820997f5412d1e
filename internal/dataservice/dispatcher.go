package dataservice

import (
	"repro/internal/sim"
)

// DispatcherStats counts control-plane activity. BusyNs is the time the
// dispatcher spent servicing RPCs, its one-server station's busy time.
type DispatcherStats struct {
	Registers     int64 // jobs registered
	Unregisters   int64 // jobs unregistered
	Leases        int64 // shard leases granted (one per worker per job)
	LeaseReleases int64 // shard leases released at unregister
	BusyNs        int64 // simulated time spent servicing RPCs
	PeakJobs      int   // most jobs registered at once
}

// dispatcherLatency is the service time of one control-plane RPC
// (registration, lease grant/release) at the dispatcher.
const dispatcherLatency = 200 * sim.Microsecond

// dispatcher is the service's control plane: one logical process that
// registers jobs, grants per-worker shard leases and releases them at
// unregister. Every RPC serializes through the dispatcher and costs a
// fixed service latency, so a flood of concurrent registrations queues —
// the dispatcher is a saturable resource like the MDS, not bookkeeping.
type dispatcher struct {
	st     *sim.Station
	active int
	stats  DispatcherStats
}

// register admits one job and grants its shard leases: one RPC for the
// registration plus one per lease, served back to back by the dispatcher's
// station at the service latency each.
func (d *dispatcher) register(t *sim.Thread, leases int) {
	d.st.Serve(t, sim.Duration(1+leases)*dispatcherLatency)
	d.stats.Registers++
	d.stats.Leases += int64(leases)
	d.active++
	if d.active > d.stats.PeakJobs {
		d.stats.PeakJobs = d.active
	}
}

// unregister releases the job's leases and retires it, one RPC each as
// in register.
func (d *dispatcher) unregister(t *sim.Thread, leases int) {
	d.st.Serve(t, sim.Duration(1+leases)*dispatcherLatency)
	d.stats.Unregisters++
	d.stats.LeaseReleases += int64(leases)
	d.active--
}
