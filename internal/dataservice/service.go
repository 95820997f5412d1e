// Package dataservice implements a simulated tf.data service — the
// disaggregated input pipeline of "tf.data: A Machine Learning Data
// Processing Framework" (PAPERS.md): instead of every trainer running its
// own input pipeline, a dispatcher registers N concurrent training jobs
// and leases per-job shards to a fleet of data-worker processes that
// read, decode and batch on the jobs' behalf over the shared Lustre
// cluster. Trainers become thin consumers pulling ready batches from the
// workers over the modeled interconnect.
//
// Workers are sim-thread groups on dedicated cluster nodes
// (platform.Cluster nodes with preloaded Darshan runtimes), so all
// service I/O lands in per-worker Darshan logs and on the merged DXT
// timeline like any training rank's. A shared cache tier built on
// vfs.NodeCache (whole-file copies on each worker's NVMe, peer-served
// over the interconnect) collapses overlapping reads — shared validation
// sets, multi-tenant jobs over one dataset — onto a single PFS fetch:
// concurrent requests for a file join the fetch already in flight instead
// of issuing their own.
//
// The saturable resources are explicit: the PFS object servers, the
// shared MDS, the cache tier's NVMe devices, and the dispatcher's
// serialized control plane. Each queues through sim.Station service
// stations, and Run reports every resource's utilization under one
// definition (Utilization). Ramping simultaneous jobs against a fixed
// fleet finds which knees first — the experiment the dataservice
// registry artifact runs.
package dataservice

import (
	"fmt"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tf"
	"repro/internal/tf/tfdata"
	"repro/internal/vfs"
)

// DefaultThreads is the per-(job,worker) map parallelism for a zero
// Config.Threads.
const DefaultThreads = 1

// prefetchDepth is the per-(job,worker) ready-batch buffer depth.
const prefetchDepth = 2

// batchRPCOverhead is a batch delivery's cost above the link transfer
// (storage.LinkTransfer): the worker-to-trainer response is an RPC, not a
// bare RDMA read.
const batchRPCOverhead = 20 * sim.Microsecond

// Config shapes the service.
type Config struct {
	// MapFn is the decode function the workers run per element (required).
	MapFn tfdata.MapFunc
	// Threads is the per-(job,worker) map parallelism (0 = DefaultThreads).
	Threads int
	// CacheBytes enables the shared cache tier: each worker gets a
	// vfs.NodeCache of this capacity on its NVMe, read-through-filled on
	// first touch. 0 disables the tier (independent cold pipelines).
	CacheBytes int64
	// PeerServing lets one worker's cached copy serve the whole fleet over
	// the interconnect — the cross-worker half of the shared tier.
	PeerServing bool
}

// JobSpec describes one training job the dispatcher admits.
type JobSpec struct {
	// Name labels the job's threads and results.
	Name string
	// Paths is the job's epoch file list (pre-shuffle order). Jobs sharing
	// a dataset pass the same list — the overlap the cache tier collapses.
	Paths []string
	// Shuffle seeds the job's epoch order; independent jobs shuffle the
	// shared list independently, like separate trainers would.
	Shuffle int64
	// Batch is the job's batch size.
	Batch int
}

// JobResult is one job's outcome.
type JobResult struct {
	Name    string
	Workers int
	// ShardFiles is the files leased per worker, worker order.
	ShardFiles []int
	// ExpectedBatches is the delivery count the leases imply
	// (tfdata.BatchCount per worker shard) — Batches must equal it for a
	// job that ran its epoch to completion.
	ExpectedBatches int64
	Batches         int64
	Samples         int64
	Bytes           int64
	// ColdBytes is the job's epoch read volume with no sharing at all
	// (sum of its files' sizes) — the dedup invariant's per-job term.
	ColdBytes int64
	// WaitNs is the consumer's time blocked waiting on workers.
	WaitNs int64
	// StartNs/EndNs bracket the job from lease grant to last batch.
	StartNs, EndNs int64
}

// service is the data service: a dispatcher plus a worker fleet over one
// platform.Cluster. Every cluster node hosts one data worker.
type service struct {
	cluster *platform.Cluster
	cfg     Config
	disp    dispatcher
	// caches is the shared tier, one cache per worker (nil when disabled).
	caches []*vfs.NodeCache
	// inflight collapses concurrent cache fills of the same file onto one
	// fetch: waiters block on the gate, then re-check residency.
	inflight map[string]*sim.Chan[struct{}]
}

// newService builds a service over the cluster's nodes. Call before the
// kernel runs (cache enablement is setup-time).
func newService(c *platform.Cluster, cfg Config) (*service, error) {
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("dataservice: cluster has no nodes")
	}
	if cfg.MapFn == nil {
		return nil, fmt.Errorf("dataservice: Config.MapFn is required")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = DefaultThreads
	}
	s := &service{
		cluster:  c,
		cfg:      cfg,
		disp:     dispatcher{st: sim.NewStation(1)},
		inflight: make(map[string]*sim.Chan[struct{}]),
	}
	if cfg.CacheBytes > 0 {
		for _, n := range c.Nodes {
			s.caches = append(s.caches, c.FS.EnableNodeCache(n.Node, vfs.NodeCacheConfig{
				Capacity:    cfg.CacheBytes,
				Device:      n.Optane,
				PeerServing: cfg.PeerServing,
			}))
		}
	}
	return s, nil
}

// cacheStats returns per-worker cache counters (nil when the tier is off).
func (s *service) cacheStats() []vfs.NodeCacheStats {
	if s.caches == nil {
		return nil
	}
	out := make([]vfs.NodeCacheStats, len(s.caches))
	for i, c := range s.caches {
		out[i] = c.Stats()
	}
	return out
}

// job is one registered job's consumer handle.
type job struct {
	spec   JobSpec
	res    JobResult
	chans  []*sim.Chan[tfdata.Batch]
	closed []bool
	rr     int
}

// register admits a job: the dispatcher grants one shard lease per worker
// (the job's epoch order sharded across the symmetric fleet) and each
// worker spawns a serving pipeline for the job. Returns the consumer
// handle the trainer pulls batches from.
func (s *service) register(t *sim.Thread, spec JobSpec) (*job, error) {
	if spec.Batch < 1 {
		return nil, fmt.Errorf("dataservice: job %q: invalid batch %d", spec.Name, spec.Batch)
	}
	if len(spec.Paths) == 0 {
		return nil, fmt.Errorf("dataservice: job %q: empty dataset", spec.Name)
	}
	j := &job{spec: spec}
	j.res.Name = spec.Name

	w := len(s.cluster.Nodes)
	leases := distributed.Shards(spec.Paths, spec.Shuffle, w)
	s.disp.register(t, w)
	j.res.Workers = w
	j.res.StartNs = t.Now()
	for _, p := range spec.Paths {
		if ino, ok := s.cluster.FS.Lookup(p); ok {
			j.res.ColdBytes += ino.Size
		}
	}
	j.chans = make([]*sim.Chan[tfdata.Batch], w)
	j.closed = make([]bool, w)
	for i := 0; i < w; i++ {
		j.res.ShardFiles = append(j.res.ShardFiles, len(leases[i]))
		j.res.ExpectedBatches += int64(tfdata.BatchCount(len(leases[i]), spec.Batch))
		j.chans[i] = sim.NewChan[tfdata.Batch](1)
		if len(leases[i]) == 0 {
			j.chans[i].Close(t)
			j.closed[i] = true
			continue
		}
		s.spawnServer(j, i, leases[i])
	}
	return j, nil
}

// spawnServer starts worker w's serving pipeline for the job: a tfdata
// pipeline on the worker's env (its I/O lands in the worker's Darshan
// runtime) whose batches are pumped into the job's per-worker channel.
func (s *service) spawnServer(j *job, w int, lease []string) {
	name := fmt.Sprintf("dsworker%d.%s", w, j.spec.Name)
	s.cluster.K.Spawn(name, func(t *sim.Thread) {
		env := s.cluster.Nodes[w].Env
		ds := tfdata.FromFiles(env, lease).
			Map(s.mapFnFor(w), s.cfg.Threads).
			Batch(j.spec.Batch).
			Prefetch(prefetchDepth)
		it, err := ds.MakeIterator()
		if err != nil {
			// Like tfdata's map errors: a configuration mistake, fatal.
			panic(fmt.Sprintf("dataservice: %s: %v", name, err))
		}
		for {
			b, ok := it.Next(t)
			if !ok {
				break
			}
			j.chans[w].Send(t, b)
		}
		it.Close(t)
		j.chans[w].Close(t)
	})
}

// mapFnFor wraps the decode function with the shared tier's read-through
// fill for worker w; without a cache tier the decode runs cold.
func (s *service) mapFnFor(w int) tfdata.MapFunc {
	if s.caches == nil {
		return s.cfg.MapFn
	}
	return func(t *sim.Thread, env *tf.Env, path string) (tfdata.Sample, error) {
		s.ensureCached(t, w, path)
		return s.cfg.MapFn(t, env, path)
	}
}

// gateKey scopes the in-flight fetch gate: with peer serving one fetch
// serves the fleet, so gates are per file; without it each worker fills
// its own cache, so gates are per (worker, file).
func (s *service) gateKey(w int, p string) string {
	if s.cfg.PeerServing {
		return p
	}
	return fmt.Sprintf("%d:%s", w, p)
}

// ensureCached is the shared tier's read-through: before decoding a file,
// a worker makes sure a whole-file copy is resident where its read can be
// served from (its own cache, or any peer's under peer serving).
// Concurrent requests for the same file collapse onto the fetch already
// in flight — the dedup that makes overlapping jobs hit the PFS once.
// Fetch failures (no space after eviction, injected transient faults)
// degrade to a cold PFS read: the tier accelerates, it is never a
// correctness dependency.
func (s *service) ensureCached(t *sim.Thread, w int, p string) {
	c := s.caches[w]
	for {
		if c.Contains(p) || (s.cfg.PeerServing && c.PeerHas(p)) {
			return
		}
		key := s.gateKey(w, p)
		if gate, ok := s.inflight[key]; ok {
			gate.Recv(t) // join the fetch in flight, then re-check
			continue
		}
		gate := sim.NewChan[struct{}](0)
		s.inflight[key] = gate
		_, err := c.Fetch(t, p)
		delete(s.inflight, key)
		gate.Close(t)
		_ = err //lint:allow errdrop fetch failure degrades to a cold PFS read; vfs.FaultStats still records the injected fault
		return
	}
}

// transfer charges the cost of moving one n-byte batch from a worker to
// the trainer.
func (j *job) transfer(t *sim.Thread, n int64) {
	t.Sleep(batchRPCOverhead + storage.LinkTransfer(n))
}

// next delivers the job's next batch, pulling round-robin across the
// workers still serving and paying the interconnect transfer. ok is false
// once every worker's shard is exhausted.
func (j *job) next(t *sim.Thread) (tfdata.Batch, bool) {
	w := len(j.chans)
	for {
		progressed := false
		for i := 0; i < w; i++ {
			c := (j.rr + i) % w
			if j.closed[c] {
				continue
			}
			progressed = true
			start := t.Now()
			b, ok := j.chans[c].Recv(t)
			j.res.WaitNs += t.Now() - start
			if !ok {
				j.closed[c] = true
				continue
			}
			j.rr = (c + 1) % w
			j.transfer(t, b.Bytes)
			j.res.Batches++
			j.res.Samples += int64(len(b.Samples))
			j.res.Bytes += b.Bytes
			return b, true
		}
		if !progressed {
			if j.res.EndNs == 0 {
				j.res.EndNs = t.Now()
			}
			return tfdata.Batch{}, false
		}
	}
}

// Result is a completed service run over a job set.
type Result struct {
	// Jobs holds one entry per submitted job, in submission order.
	Jobs []JobResult
	// Dispatcher is the control plane's final counters.
	Dispatcher DispatcherStats
	// WallSeconds is the virtual duration of the whole run.
	WallSeconds float64
	// PFSBytesRead is the shared Lustre device's read delta over the run —
	// what the fleet actually asked of the PFS.
	PFSBytesRead int64
	// CacheStats is the per-worker cache tier counters (nil when the tier
	// is off).
	CacheStats []vfs.NodeCacheStats
	// Util is each saturable resource's utilization over the run.
	Util Utilization
	// PerWorker is each worker's Darshan record set exported at run end;
	// Merged is their cross-worker reduction (counters + DXT timeline).
	PerWorker []*darshan.Log
	Merged    *darshan.Log
}

// Utilization is the share of a run each saturable resource spent busy:
// busy server-time ÷ (servers × wall) on the resource's busiest station,
// so every value is in [0, 1].
type Utilization struct {
	PFS        float64 // Lustre object servers: data slots and bus
	MDS        float64 // the shared metadata server
	Cache      float64 // the busiest worker's cache NVMe: slots and bus
	Dispatcher float64 // the control plane
}

// load is one resource's stations and their busy time when a run began.
type load struct {
	stations []*sim.Station
	before   []sim.Duration
}

func newLoad(now int64, stations ...*sim.Station) load {
	l := load{stations: stations}
	for _, st := range stations {
		l.before = append(l.before, st.Busy(now))
	}
	return l
}

// util returns the busiest station's utilization since the load began,
// over wall seconds.
func (l load) util(now int64, wall float64) float64 {
	var u float64
	for i, st := range l.stations {
		u = max(u, sim.Seconds(st.Busy(now)-l.before[i])/(float64(st.Servers())*wall))
	}
	return u
}

// TotalColdBytes sums the jobs' no-sharing read volumes — the bound the
// dedup invariant compares PFSBytesRead against.
func (r *Result) TotalColdBytes() int64 {
	var n int64
	for _, j := range r.Jobs {
		n += j.ColdBytes
	}
	return n
}

// Run executes jobs against a fresh service on the cluster: every job
// gets a trainer (consumer) thread that registers, pulls its whole epoch
// and unregisters; the kernel runs to completion and the per-worker
// Darshan runtimes are exported and merged. The cluster must have been
// booted with PreloadDarshan for the export to capture service I/O.
func Run(c *platform.Cluster, jobs []JobSpec, cfg Config) (*Result, error) {
	svc, err := newService(c, cfg)
	if err != nil {
		return nil, err
	}
	startNs := c.K.Now()
	lustreBefore := c.Lustre.Counters()
	var nvme []*sim.Station
	for _, n := range c.Nodes {
		nvme = append(nvme, n.Optane.Stations()...)
	}
	pfs, mds, cache, disp := newLoad(startNs, c.Lustre.Stations()...), newLoad(startNs, c.Lustre.MDS()),
		newLoad(startNs, nvme...), newLoad(startNs, svc.disp.st)

	results := make([]JobResult, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		i := i
		spec := jobs[i]
		c.K.Spawn(fmt.Sprintf("trainer.%s", spec.Name), func(t *sim.Thread) {
			jb, err := svc.register(t, spec)
			if err != nil {
				errs[i] = err
				return
			}
			for {
				if _, ok := jb.next(t); !ok {
					break
				}
			}
			svc.disp.unregister(t, jb.res.Workers)
			results[i] = jb.res
		})
	}
	if err := c.K.Run(); err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	now := c.K.Now()
	svc.disp.stats.BusyNs = svc.disp.st.Busy(now)
	res := &Result{
		Jobs:         results,
		Dispatcher:   svc.disp.stats,
		WallSeconds:  sim.Seconds(now - startNs),
		PFSBytesRead: c.Lustre.Counters().Sub(lustreBefore).BytesRead,
		CacheStats:   svc.cacheStats(),
	}
	if wall := res.WallSeconds; wall > 0 {
		res.Util = Utilization{PFS: pfs.util(now, wall), MDS: mds.util(now, wall), Cache: cache.util(now, wall), Dispatcher: disp.util(now, wall)}
	}
	for _, rt := range c.Runtimes() {
		res.PerWorker = append(res.PerWorker, rt.Export(now))
	}
	res.Merged = darshan.Merge(res.PerWorker)
	return res, nil
}
