package sim

// Station is a FIFO service station with a fixed number of servers, the
// one model of a saturable resource: CPU cores, a GPU, a device's command
// slots or transfer bus, a metadata server, a control plane. A thread
// holds one server from Acquire to Release, or for d under Serve; waiters
// are served in arrival order through a Semaphore. The station integrates
// its in-service server count over virtual time exactly, so a resource is
// busy for Busy ÷ (Servers × wall) of a run, which is at most 1.
type Station struct {
	sem     Semaphore
	servers int
	busy    Duration // in-service server-time up to last
	last    int64    // virtual time busy was integrated to
}

// NewStation returns a station with n servers.
func NewStation(n int) *Station {
	if n <= 0 {
		panic("sim: station needs at least one server")
	}
	return &Station{sem: Semaphore{avail: n}, servers: n}
}

// Servers returns the number of servers.
func (s *Station) Servers() int { return s.servers }

// Busy returns the in-service server-time integrated up to now. The
// in-service count is servers minus free permits; it changes only inside
// Acquire and Release, which integrate up to the change first.
func (s *Station) Busy(now int64) Duration {
	return s.busy + Duration(s.servers-s.sem.avail)*(now-s.last)
}

func (s *Station) integrate(now int64) { s.busy, s.last = s.Busy(now), now }

// Acquire takes a server, parking t until one is free.
func (s *Station) Acquire(t *Thread) {
	s.integrate(t.Now())
	s.sem.Acquire(t, 1)
}

// Release frees t's server, handing it to the longest waiter.
func (s *Station) Release(t *Thread) {
	s.integrate(t.Now())
	s.sem.Release(t, 1)
}

// Serve holds one server for d. A d ≤ 0 still sleeps, and Sleep(0)
// yields to the other ready threads.
func (s *Station) Serve(t *Thread, d Duration) {
	s.Acquire(t)
	t.Sleep(d)
	s.Release(t)
}
