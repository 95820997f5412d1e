package vfs

import (
	"repro/internal/sim"
)

// Transient fault injection: a FaultPlan armed on the FS perturbs the
// syscall surface the way a real parallel file system misbehaves under
// load — flaky reads (EIO), metadata-server brownouts (every metadata op
// stretched k×), degraded-OST bandwidth windows (every PFS data read
// stretched k×) and peer-cache serves dying mid-flight. Every injection
// is deterministic: scheduled windows are judged against virtual time and
// the per-read error rolls come from a seeded counter hash, so identical
// runs fault identically. An FS with no plan armed is bit-identical to
// one built before this file existed — every hook is a nil check.

// FaultWindow is a virtual-time interval during which an operation class
// is slowed by Factor (2 = twice as slow). Membership is judged at the
// instant the underlying device operation completes, which keeps the
// decision deterministic regardless of how long the op itself took.
type FaultWindow struct {
	Start, End sim.Duration
	Factor     float64
}

func (w FaultWindow) contains(now int64) bool {
	return now >= int64(w.Start) && now < int64(w.End)
}

// FaultPlan schedules transient faults. The zero value injects nothing.
type FaultPlan struct {
	// Seed drives the per-read error rolls (and nothing else); two plans
	// with the same seed fault the same reads.
	Seed int64
	// ReadErrNth fails every Nth data read per node with ErrIO (0 = off).
	// Cache fetches count as data reads: the prefetcher shares the flaky
	// read path with the consumer it front-runs.
	ReadErrNth int
	// ReadErrRate additionally fails each data read with this seeded
	// probability (0 = off).
	ReadErrRate float64
	// MDSBrownouts are windows during which metadata ops take Factor×
	// longer (a metadata server melting under a login-node stat storm).
	MDSBrownouts []FaultWindow
	// DegradedOSTs are windows during which PFS data reads take Factor×
	// longer (an OST rebuilding a RAID stripe). Node-cache and peer-cache
	// hits are unaffected — only reads that touch the backing mount pay.
	DegradedOSTs []FaultWindow
	// PeerServeFailNth kills every Nth peer-cache serve per node
	// mid-flight (0 = off): the requester pays the RPC latency, then
	// falls back to the PFS.
	PeerServeFailNth int
}

// active reports whether the plan can inject anything at all.
func (p *FaultPlan) active() bool {
	return p.ReadErrNth > 0 || p.ReadErrRate > 0 ||
		len(p.MDSBrownouts) > 0 || len(p.DegradedOSTs) > 0 ||
		p.PeerServeFailNth > 0
}

// FaultStats counts injected faults and the simulated time they added.
type FaultStats struct {
	ReadFaults      int64 // EIO injected into consumer data reads
	FetchFaults     int64 // EIO injected into cache prefetch fetches
	PeerServeFaults int64 // peer-cache serves killed mid-flight
	BrownoutOps     int64 // metadata ops stretched by an MDS brownout
	BrownoutNs      int64 // extra metadata time injected
	DegradedReads   int64 // PFS data reads stretched by a degraded OST
	DegradedNs      int64 // extra read time injected
}

// add accumulates o into s.
func (s *FaultStats) add(o FaultStats) {
	s.ReadFaults += o.ReadFaults
	s.FetchFaults += o.FetchFaults
	s.PeerServeFaults += o.PeerServeFaults
	s.BrownoutOps += o.BrownoutOps
	s.BrownoutNs += o.BrownoutNs
	s.DegradedReads += o.DegradedReads
	s.DegradedNs += o.DegradedNs
}

// faultState is the armed plan plus its per-node counters. Counters are
// per node so rank placement cannot leak faults across nodes: node A's
// read cadence never shifts which of node B's reads fail.
type faultState struct {
	plan      FaultPlan
	readCount []int64
	peerCount []int64
	stats     []FaultStats
}

// InjectFaults arms plan on the file system; it applies to every node's
// traffic from now on. A plan that can inject nothing disarms (hooks
// return to their zero-cost path).
func (fs *FS) InjectFaults(plan FaultPlan) {
	if !plan.active() {
		fs.faults = nil
		return
	}
	fs.faults = &faultState{plan: plan}
}

// FaultStatsAt returns the faults injected into node's traffic so far.
func (fs *FS) FaultStatsAt(node int) FaultStats {
	if fs.faults == nil || node >= len(fs.faults.stats) {
		return FaultStats{}
	}
	return fs.faults.stats[node]
}

// TotalFaultStats returns the faults injected across all nodes.
func (fs *FS) TotalFaultStats() FaultStats {
	var out FaultStats
	if fs.faults != nil {
		for _, s := range fs.faults.stats {
			out.add(s)
		}
	}
	return out
}

// splitmix64 is the standard 64-bit finalizer used for seeded rolls.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a deterministic uniform value in [0,1) for node's n-th read.
func (f *faultState) roll(node int, n int64) float64 {
	h := splitmix64(uint64(f.plan.Seed) ^ uint64(node)<<40 ^ uint64(n))
	return float64(h>>11) / float64(1<<53)
}

// dataReadFault reports whether node's next data read fails with ErrIO.
// fetch distinguishes prefetch fills from consumer reads in the stats;
// both share one per-node cadence counter.
func (fs *FS) dataReadFault(node int, fetch bool) error {
	f := fs.faults
	if f == nil {
		return nil
	}
	n := nodeSlot(&f.readCount, node)
	*n++
	p := &f.plan
	hit := p.ReadErrNth > 0 && *n%int64(p.ReadErrNth) == 0
	if !hit && p.ReadErrRate > 0 && f.roll(node, *n) < p.ReadErrRate {
		hit = true
	}
	if !hit {
		return nil
	}
	if fetch {
		nodeSlot(&f.stats, node).FetchFaults++
	} else {
		nodeSlot(&f.stats, node).ReadFaults++
	}
	return ErrIO
}

// peerServeFault reports whether node's next peer-cache serve dies
// mid-flight.
func (fs *FS) peerServeFault(node int) bool {
	f := fs.faults
	if f == nil || f.plan.PeerServeFailNth <= 0 {
		return false
	}
	n := nodeSlot(&f.peerCount, node)
	*n++
	if *n%int64(f.plan.PeerServeFailNth) != 0 {
		return false
	}
	nodeSlot(&f.stats, node).PeerServeFaults++
	return true
}

// penalize stretches the operation that ran [startNs, now] by the first
// matching window's factor, charging the extra time to the caller.
func (f *faultState) penalize(t *sim.Thread, node int, startNs int64, windows []FaultWindow, meta bool) {
	now := t.Now()
	for _, w := range windows {
		if !w.contains(now) || w.Factor <= 1 {
			continue
		}
		extra := sim.Duration(float64(now-startNs) * (w.Factor - 1))
		if extra <= 0 {
			return
		}
		t.Sleep(extra)
		st := nodeSlot(&f.stats, node)
		if meta {
			st.BrownoutOps++
			st.BrownoutNs += int64(extra)
		} else {
			st.DegradedReads++
			st.DegradedNs += int64(extra)
		}
		return
	}
}

// chargeMeta issues one device metadata op for node, stretched by any
// active MDS brownout window.
func (fs *FS) chargeMeta(t *sim.Thread, m *Mount, node int, pos int64) {
	f := fs.faults
	if f == nil || len(f.plan.MDSBrownouts) == 0 {
		m.Dev.Metadata(t, pos)
		return
	}
	start := t.Now()
	m.Dev.Metadata(t, pos)
	f.penalize(t, node, start, f.plan.MDSBrownouts, true)
}

// chargePFSRead issues one backing-mount data read for node, stretched by
// any active degraded-OST window.
func (fs *FS) chargePFSRead(t *sim.Thread, node int, ino *Inode, off, n int64) {
	f := fs.faults
	if f == nil || len(f.plan.DegradedOSTs) == 0 {
		ino.Mnt.Dev.Read(t, ino.Extent+off, n)
		return
	}
	start := t.Now()
	ino.Mnt.Dev.Read(t, ino.Extent+off, n)
	f.penalize(t, node, start, f.plan.DegradedOSTs, false)
}
