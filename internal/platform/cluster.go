package platform

import (
	"fmt"

	"repro/internal/darshan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tf"
	"repro/internal/vfs"
)

// Cluster is N Kebnekaise compute nodes sharing one Lustre file system:
// the multi-rank evaluation platform of the distributed data-parallel
// scenario. All nodes run inside one simulation kernel and mount the same
// VFS, so every rank's opens contend for the shared MDS and every rank's
// data reads share OSS bandwidth — cross-rank PFS contention shows up in
// simulated device time exactly as single-node contention already does.
type Cluster struct {
	K      *sim.Kernel
	FS     *vfs.FS
	Lustre *storage.Lustre
	// DataMount is the shared Lustre mount all ranks read from.
	DataMount *vfs.Mount
	// Nodes holds one Machine per rank, each with its own CPU pool, GPU,
	// process image and (preloaded) Darshan runtime over the shared FS.
	Nodes []*Machine

	// opts/bootNs remember how the cluster was booted so RejoinNode can
	// rebuild a dead rank's node the same way; gens counts reboots per
	// rank (naming each incarnation's fresh NVMe device).
	opts   Options
	bootNs int64
	gens   []int
}

// Runtimes returns the per-rank Darshan runtimes in rank order.
func (c *Cluster) Runtimes() []*darshan.Runtime {
	out := make([]*darshan.Runtime, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Darshan
	}
	return out
}

// ClusterNVMePrefix is the mount-point root of the per-node NVMe burst
// buffers: rank r's node-local fast tier mounts at
// ClusterNVMePrefix/rank<r>.
const ClusterNVMePrefix = "/nvme"

// NodeNVMePath returns rank r's node-local fast-tier mount point.
func NodeNVMePath(rank int) string {
	return fmt.Sprintf("%s/rank%d", ClusterNVMePrefix, rank)
}

// NewKebnekaiseCluster boots ranks compute nodes over one shared Lustre
// mount. Each rank mirrors NewKebnekaise's single node (28 cores, 2xV100,
// whole-run preloaded Darshan stamped with the rank), so a one-rank
// cluster is the existing single-node platform, bit for bit.
//
// Beyond the shared Lustre system, every node carries its own Optane-class
// NVMe burst buffer (the node-local fast tier Clairvoyant-Prefetching-
// style per-rank staging targets), exposed as the node's FastMount. The
// buffers hold no files at boot, so runs that never stage are unaffected.
//
// Client-side metadata caching is per node: rank r runs as vfs node r, so
// a file warmed by one rank is still cold for every other rank — each pays
// its own MDS RPC on first touch, as real Lustre clients do.
func NewKebnekaiseCluster(ranks int, opts Options) *Cluster {
	if ranks < 1 {
		panic(fmt.Sprintf("platform: invalid rank count %d", ranks))
	}
	k := sim.NewKernel()
	fs := vfs.New()
	data, lustre := wireKebnekaiseLustre(fs)
	c := &Cluster{K: k, FS: fs, Lustre: lustre, DataMount: data,
		opts: opts, bootNs: k.Now(), gens: make([]int, ranks)}

	for r := 0; r < ranks; r++ {
		proc, cpu, env, rt := bootNode(k, fs, r, kebnekaiseCores, tf.NewGPU(kebnekaiseGPU), opts)
		rt.SetRank(r)
		nvme := storage.NewFlash(fmt.Sprintf("nvme0n1-rank%d", r), storage.DefaultOptaneParams())
		fast := fs.AddMount(&vfs.Mount{
			Prefix: NodeNVMePath(r), Dev: nvme,
			OpenMetaTrips: 1.0, DirMetaTrips: 1.0,
		})
		c.Nodes = append(c.Nodes, &Machine{
			Name:      fmt.Sprintf("kebnekaise-rank%d", r),
			K:         k,
			CPU:       cpu,
			FS:        fs,
			Node:      r,
			Proc:      proc,
			Env:       env,
			Lustre:    lustre,
			Optane:    nvme,
			DataMount: data,
			FastMount: fast,
			CkptMount: data,
			Darshan:   rt,
		})
	}
	return c
}

// KillNode models rank's compute node dying abruptly: all client-side
// state on the shared FS (warm metadata, burst-buffer cache contents,
// open descriptors) vanishes, and the node-local NVMe's files do not
// survive the crash. The dead Machine is returned — its Darshan runtime
// still holds the instrumentation recorded up to the failure instant, the
// only part of the process the simulator's failure oracle preserves.
// Setup-time operation: no simulated time passes.
func (c *Cluster) KillNode(rank int) *Machine {
	dead := c.Nodes[rank]
	c.FS.DropNodeState(rank)
	c.FS.RemoveTree(NodeNVMePath(rank))
	return dead
}

// RejoinNode boots a replacement node for rank after a KillNode: a fresh
// process image, Darshan runtime (on the original job clock, so merged
// timelines stay on one time base) and an empty factory-fresh NVMe behind
// the same mount point. The new Machine replaces c.Nodes[rank]. The
// reborn node reuses vfs node id rank with cold caches — DropNodeState at
// kill time already cleared every warm bit.
func (c *Cluster) RejoinNode(rank int) *Machine {
	old := c.Nodes[rank]
	c.gens[rank]++
	proc, cpu, env, rt := bootNodeAt(c.K, c.FS, rank, kebnekaiseCores, tf.NewGPU(kebnekaiseGPU), c.opts, c.bootNs)
	rt.SetRank(rank)
	nvme := storage.NewFlash(fmt.Sprintf("nvme0n1-rank%d-gen%d", rank, c.gens[rank]), storage.DefaultOptaneParams())
	old.FastMount.SwapDevice(nvme)
	m := &Machine{
		Name:      fmt.Sprintf("kebnekaise-rank%d-gen%d", rank, c.gens[rank]),
		K:         c.K,
		CPU:       cpu,
		FS:        c.FS,
		Node:      rank,
		Proc:      proc,
		Env:       env,
		Lustre:    c.Lustre,
		Optane:    nvme,
		DataMount: c.DataMount,
		FastMount: old.FastMount,
		CkptMount: c.DataMount,
		Darshan:   rt,
	}
	c.Nodes[rank] = m
	return m
}
