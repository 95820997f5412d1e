// Package tf is the root of the TensorFlow-like runtime: the execution
// environment tying together the simulation kernel, CPU pool, VFS-backed
// process image (libc via the GOT) and the profiler. Subpackages provide
// the tf.data input pipeline (tfdata), file ops and checkpointing (tfio),
// and the Keras-style training loop (keras).
package tf

import (
	"repro/internal/dynload"
	"repro/internal/libc"
	"repro/internal/sim"
	"repro/internal/tf/profiler"
	"repro/internal/vfs"
)

// Env is the runtime environment of one simulated TensorFlow process.
type Env struct {
	K    *sim.Kernel
	CPU  *sim.CPUSet
	FS   *vfs.FS
	Proc *dynload.Process
	// Libc routes all I/O through the process GOT, making it visible to
	// interposers.
	Libc *libc.Calls
	GPU  *GPU
	Prof *profiler.Profiler

	// VerifyContent turns off the zero-materialization read fast path:
	// the whole-file readers hand their pread/fread calls a scratch buffer
	// instead of nil, so every byte is generated, and checksum it against
	// the VFS generator at EOF. Simulated time and Darshan counters are
	// identical either way; only host CPU time differs. Off by default.
	VerifyContent bool

	// Retry is the process-wide policy for retrying transient I/O errors
	// (retry.go). The zero value retries nothing: every I/O error is
	// final, exactly the pre-policy behavior.
	Retry RetryPolicy
	// RetryStats tallies the policy's activity for this process.
	RetryStats RetryStats

	scratch map[int][]byte
}

// ScratchBuf returns a per-thread scratch buffer of at least n bytes,
// recycled across calls so multi-gigabyte simulated scans do not allocate
// real memory per file.
func (e *Env) ScratchBuf(t *sim.Thread, n int) []byte {
	if b, ok := e.scratch[t.ID()]; ok && len(b) >= n {
		return b[:n]
	}
	b := make([]byte, n)
	e.scratch[t.ID()] = b
	return b
}

// NewEnv wires an environment over an existing process image. The process
// must already be linked against libc (and any preload libraries).
func NewEnv(k *sim.Kernel, cpu *sim.CPUSet, fs *vfs.FS, proc *dynload.Process, gpu *GPU) *Env {
	e := &Env{
		K:       k,
		CPU:     cpu,
		FS:      fs,
		Proc:    proc,
		Libc:    libc.Bind(proc),
		GPU:     gpu,
		Prof:    profiler.New(),
		scratch: make(map[int][]byte),
	}
	if gpu != nil {
		e.Prof.RegisterTracer(func() profiler.Tracer { return NewDeviceTracer(gpu) })
	}
	return e
}

// Trace opens a TraceMe annotation through the environment's recorder.
func (e *Env) Trace(t *sim.Thread, name string) profiler.TraceMe {
	return e.Prof.Recorder().Begin(t, name)
}

// GPU models an accelerator (or a data-parallel group of them presented as
// one device): kernels serialize on the device and are recorded for the
// device tracer while a profiling session is active.
type GPU struct {
	Name string
	// Station is the device's one server; kernels queue on it in FIFO
	// order.
	Station *sim.Station

	tracing bool
	kernels []KernelExec
}

// KernelExec is one recorded kernel execution.
type KernelExec struct {
	Name    string
	StartNs int64
	DurNs   int64
}

// NewGPU returns a GPU device model.
func NewGPU(name string) *GPU { return &GPU{Name: name, Station: sim.NewStation(1)} }

// Launch runs a kernel of duration d on the device, serializing with other
// launches. The kernel started d before Serve returns.
func (g *GPU) Launch(t *sim.Thread, name string, d sim.Duration) {
	g.Station.Serve(t, d)
	if g.tracing {
		g.kernels = append(g.kernels, KernelExec{Name: name, StartNs: t.Now() - d, DurNs: d})
	}
}

// DevicePlaneName is the XSpace plane of GPU traces.
const DevicePlaneName = "/device:GPU:0"

// DeviceTracer records GPU kernel executions, standing in for the
// CUPTI-backed device tracer of TF 2.2.0.
type DeviceTracer struct {
	gpu     *GPU
	kernels []KernelExec
}

// NewDeviceTracer returns a tracer for gpu.
func NewDeviceTracer(gpu *GPU) *DeviceTracer { return &DeviceTracer{gpu: gpu} }

// Name implements profiler.Tracer.
func (d *DeviceTracer) Name() string { return "device" }

// Start implements profiler.Tracer.
func (d *DeviceTracer) Start(t *sim.Thread) error {
	d.gpu.tracing = true
	d.gpu.kernels = nil
	return nil
}

// Stop implements profiler.Tracer.
func (d *DeviceTracer) Stop(t *sim.Thread) error {
	d.gpu.tracing = false
	d.kernels = d.gpu.kernels
	d.gpu.kernels = nil
	return nil
}

// CollectData implements profiler.Tracer.
func (d *DeviceTracer) CollectData(t *sim.Thread, space *profiler.XSpace) error {
	plane := space.Plane(DevicePlaneName)
	line := plane.Line(0, d.gpu.Name)
	for _, k := range d.kernels {
		line.Events = append(line.Events, profiler.XEvent{
			Name:    k.Name,
			StartNs: k.StartNs,
			DurNs:   k.DurNs,
		})
	}
	return nil
}
