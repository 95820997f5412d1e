// Package platform assembles the two evaluation machines of the paper
// (§IV-A) as fully wired simulated systems: Greendog, an 8-core/16-thread
// workstation with HDD + SATA SSD + Intel Optane 900p storage tiers and an
// RTX 2060 SUPER, and Kebnekaise, a 28-core HPC node with two V100s on a
// shared Lustre file system. Each machine boots a process image linked
// against libc over its VFS, a Darshan runtime packaged as an installable
// shared library, and a TensorFlow environment.
package platform

import (
	"repro/internal/darshan"
	"repro/internal/dynload"
	"repro/internal/libc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tf"
	"repro/internal/vfs"
)

// Well-known mount points.
const (
	GreendogHDDPath    = "/data/hdd"
	GreendogSSDPath    = "/data/ssd"
	GreendogOptanePath = "/data/optane"
	KebnekaiseLustre   = "/pfs/lustre"
)

// Machine is one booted evaluation system.
type Machine struct {
	Name string
	K    *sim.Kernel
	CPU  *sim.CPUSet
	FS   *vfs.FS
	// Node is this machine's node id on FS: the index of its client-side
	// metadata/cache state (vfs.NodeView). Single machines are node 0;
	// cluster rank r is node r.
	Node int
	Proc *dynload.Process
	Env  *tf.Env

	// Storage devices present on the machine (nil when absent).
	HDD    *storage.HDD
	SSD    *storage.Flash
	Optane *storage.Flash
	Lustre *storage.Lustre

	// Mounts by role.
	DataMount *vfs.Mount // where datasets live
	FastMount *vfs.Mount // staging target (Optane on Greendog)
	CkptMount *vfs.Mount // checkpoint target

	// Darshan is the instrumentation runtime; its shared library is
	// installed in the process image for dlopen by tf-Darshan.
	Darshan *darshan.Runtime
}

// Devices returns all storage devices for dstat-style sampling.
func (m *Machine) Devices() []storage.Device {
	var out []storage.Device
	if m.HDD != nil {
		out = append(out, m.HDD)
	}
	if m.SSD != nil {
		out = append(out, m.SSD)
	}
	if m.Optane != nil {
		out = append(out, m.Optane)
	}
	if m.Lustre != nil {
		out = append(out, m.Lustre)
	}
	return out
}

// Options tweak machine construction.
type Options struct {
	// DarshanConfig overrides the instrumentation configuration.
	DarshanConfig *darshan.Config
	// PreloadDarshan links Darshan LD_PRELOAD-style at startup (classic
	// whole-run Darshan instead of tf-Darshan runtime attachment).
	PreloadDarshan bool
}

// darshanConfig resolves the instrumentation configuration.
func (o Options) darshanConfig() darshan.Config {
	if o.DarshanConfig != nil {
		return *o.DarshanConfig
	}
	return darshan.DefaultConfig()
}

// bootNode assembles the per-node half of a machine: a Darshan runtime, a
// process image linked against libc over one node's view of fs (with the
// runtime preloaded when asked), a CPU pool and the TF environment. The
// single evaluation machines and every rank of a cluster boot through this
// one path, so a one-rank cluster node is constructed exactly like the
// single machine.
func bootNode(k *sim.Kernel, fs *vfs.FS, node, cores int, gpu *tf.GPU, opts Options) (*dynload.Process, *sim.CPUSet, *tf.Env, *darshan.Runtime) {
	return bootNodeAt(k, fs, node, cores, gpu, opts, k.Now())
}

// bootNodeAt is bootNode with an explicit Darshan job-start timestamp. A
// node rebooted mid-job passes the original job start, so the reborn
// runtime's relative timestamps share the surviving ranks' time base and
// the merged timeline stays on one clock.
func bootNodeAt(k *sim.Kernel, fs *vfs.FS, node, cores int, gpu *tf.GPU, opts Options, jobStartNs int64) (*dynload.Process, *sim.CPUSet, *tf.Env, *darshan.Runtime) {
	rt := darshan.NewRuntime(opts.darshanConfig(), jobStartNs)
	proc := dynload.NewProcess()
	base := libc.NewNodeLibrary(fs, node)
	if opts.PreloadDarshan {
		proc.LinkStartup([]*dynload.Library{darshan.NewPreloadLibrary(rt, base)}, base)
	} else {
		proc.LinkStartup(nil, base)
	}
	proc.Install(darshan.NewSharedLibrary(rt))
	cpu := sim.NewCPUSet(cores)
	return proc, cpu, tf.NewEnv(k, cpu, fs, proc, gpu), rt
}

func buildMachine(name string, cores int, gpu *tf.GPU, wire func(fs *vfs.FS) []*vfs.Mount, opts Options) (*Machine, []*vfs.Mount) {
	k := sim.NewKernel()
	fs := vfs.New()
	mounts := wire(fs)
	proc, cpu, env, rt := bootNode(k, fs, 0, cores, gpu, opts)
	return &Machine{
		Name:    name,
		K:       k,
		CPU:     cpu,
		FS:      fs,
		Proc:    proc,
		Env:     env,
		Darshan: rt,
	}, mounts
}

// NewGreendog boots the workstation. Datasets live on the HDD mount;
// checkpoints go to the SSD; the Optane mount is the staging fast tier.
func NewGreendog(opts Options) *Machine {
	var hdd *storage.HDD
	var ssd, optane *storage.Flash
	m, mounts := buildMachine("greendog", 16, tf.NewGPU("RTX2060S"), func(fs *vfs.FS) []*vfs.Mount {
		hdd = storage.NewHDD("sda", storage.DefaultHDDParams())
		ssd = storage.NewFlash("sdb", storage.DefaultSSDParams())
		optane = storage.NewFlash("nvme0n1", storage.DefaultOptaneParams())
		data := fs.AddMount(&vfs.Mount{
			Prefix: GreendogHDDPath, Dev: hdd,
			// Cold ext4 lookups: an inode-table block plus an htree
			// directory-entry block per first open (page cache dropped
			// before every run, §IV-A).
			OpenMetaTrips: 2.0, DirMetaTrips: 1.0,
		})
		ckpt := fs.AddMount(&vfs.Mount{Prefix: GreendogSSDPath, Dev: ssd, OpenMetaTrips: 1.0, DirMetaTrips: 1.0})
		fast := fs.AddMount(&vfs.Mount{Prefix: GreendogOptanePath, Dev: optane, OpenMetaTrips: 1.0, DirMetaTrips: 1.0})
		return []*vfs.Mount{data, fast, ckpt}
	}, opts)
	m.HDD, m.SSD, m.Optane = hdd, ssd, optane
	m.DataMount, m.FastMount, m.CkptMount = mounts[0], mounts[1], mounts[2]
	return m
}

// Kebnekaise node shape (§IV-A), shared by the single machine and every
// cluster rank.
const (
	kebnekaiseCores = 28
	kebnekaiseGPU   = "2xV100"
)

// wireKebnekaiseLustre mounts the shared Lustre file system. Every cold
// open is one MDS RPC; directory lookups are client-cached after first
// touch.
func wireKebnekaiseLustre(fs *vfs.FS) (*vfs.Mount, *storage.Lustre) {
	lustre := storage.NewLustre("lustre", storage.DefaultLustreParams())
	data := fs.AddMount(&vfs.Mount{
		Prefix: KebnekaiseLustre, Dev: lustre,
		OpenMetaTrips: 1.0, DirMetaTrips: 1.0,
	})
	return data, lustre
}

// NewKebnekaise boots one compute node of the HPC cluster. Everything
// lives on the shared Lustre file system.
func NewKebnekaise(opts Options) *Machine {
	var lustre *storage.Lustre
	m, mounts := buildMachine("kebnekaise", kebnekaiseCores, tf.NewGPU(kebnekaiseGPU), func(fs *vfs.FS) []*vfs.Mount {
		var data *vfs.Mount
		data, lustre = wireKebnekaiseLustre(fs)
		return []*vfs.Mount{data, data, data}
	}, opts)
	m.Lustre = lustre
	m.DataMount, m.FastMount, m.CkptMount = mounts[0], nil, mounts[2]
	return m
}
