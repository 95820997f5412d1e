package sim

// CPUSet models a pool of processor cores. Compute phases acquire a core
// for their duration, so oversubscribed thread pools contend for CPU the
// way they would on a real node. Preemption is not modelled: a compute
// burst holds its core until it finishes, which is accurate enough for the
// millisecond-scale preprocessing bursts in ML input pipelines.
type CPUSet struct {
	cores *Station
}

// NewCPUSet returns a CPU pool with the given number of cores.
func NewCPUSet(cores int) *CPUSet {
	if cores <= 0 {
		panic("sim: CPUSet needs at least one core")
	}
	return &CPUSet{cores: NewStation(cores)}
}

// Cores returns the number of cores in the pool.
func (c *CPUSet) Cores() int { return c.cores.Servers() }

// Compute burns d of CPU time on one core, waiting for a free core first.
func (c *CPUSet) Compute(t *Thread, d Duration) {
	if d <= 0 {
		return
	}
	c.cores.Serve(t, d)
}
