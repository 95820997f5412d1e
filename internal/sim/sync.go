package sim

import "fmt"

// Mutex is a FIFO mutual-exclusion lock for simulated threads. The zero
// value is an unlocked mutex.
type Mutex struct {
	owner   *Thread
	waiters []*Thread
}

// Lock acquires the mutex, parking t until it is available. Waiters are
// served in FIFO order.
func (m *Mutex) Lock(t *Thread) {
	if m.owner == t {
		panic(fmt.Sprintf("sim: thread %q recursively locking mutex", t.name))
	}
	if m.owner == nil {
		m.owner = t
		return
	}
	m.waiters = append(m.waiters, t)
	t.park(stateBlocked, "mutex")
}

// Unlock releases the mutex, handing it to the longest-waiting thread.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic(fmt.Sprintf("sim: thread %q unlocking mutex owned by %v", t.name, ownerName(m.owner)))
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	t.k.makeReady(next)
}

func ownerName(t *Thread) string {
	if t == nil {
		return "<nobody>"
	}
	return t.name
}

// Semaphore is a counting semaphore with FIFO wakeup. Waiters are stored
// by value in a head-indexed queue, so a blocked Acquire allocates nothing
// in steady state: a full slice with served entries at its head is
// compacted instead of regrown, so it grows only when every slot holds a
// waiting thread, even if the queue never drains.
type Semaphore struct {
	avail   int
	waiters []semWaiter
	whead   int
}

type semWaiter struct {
	t *Thread
	n int
}

func (s *Semaphore) waiting() int { return len(s.waiters) - s.whead }

func (s *Semaphore) pushWaiter(w semWaiter) {
	if s.whead > 0 && len(s.waiters) == cap(s.waiters) {
		s.waiters, s.whead = s.waiters[:copy(s.waiters, s.waiters[s.whead:])], 0
	}
	s.waiters = append(s.waiters, w)
}

func (s *Semaphore) popWaiter() semWaiter {
	w := s.waiters[s.whead]
	s.waiters[s.whead] = semWaiter{}
	s.whead++
	return w
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Semaphore{avail: n}
}

// Acquire takes n permits, parking t until they are available. FIFO order
// is strict: a large request at the head blocks smaller requests behind it
// (no barging), which keeps service order deterministic and fair.
func (s *Semaphore) Acquire(t *Thread, n int) {
	if n <= 0 {
		panic("sim: non-positive semaphore acquire")
	}
	if s.waiting() == 0 && s.avail >= n {
		s.avail -= n
		return
	}
	s.pushWaiter(semWaiter{t: t, n: n})
	t.park(stateBlocked, "semaphore")
}

// Release returns n permits and wakes any waiters that can now proceed.
func (s *Semaphore) Release(t *Thread, n int) {
	if n <= 0 {
		panic("sim: non-positive semaphore release")
	}
	s.avail += n
	for s.waiting() > 0 && s.avail >= s.waiters[s.whead].n {
		w := s.popWaiter()
		s.avail -= w.n
		t.k.makeReady(w.t)
	}
}

// cond is the condition variable behind Barrier, bound to its mutex.
type cond struct {
	m       *Mutex
	waiters []*Thread
}

// wait atomically releases the mutex and parks t; on wakeup it reacquires
// the mutex before returning. Callers re-check their predicate in a loop.
func (c *cond) wait(t *Thread) {
	c.waiters = append(c.waiters, t)
	c.m.Unlock(t)
	t.park(stateBlocked, "cond")
	c.m.Lock(t)
}

// broadcast wakes all waiting threads in FIFO order.
func (c *cond) broadcast(t *Thread) {
	for _, w := range c.waiters {
		t.k.makeReady(w)
	}
	c.waiters = nil
}

// Barrier is a deterministic cyclic barrier: Await parks the caller until
// all parties have arrived, then releases the whole generation together
// (FIFO wakeup order). Reusable across generations, like a per-step
// gradient-synchronization point.
//
// The barrier is elastic: Leave removes the caller's party (a rank dying
// mid-step), breaking the generation in progress so survivors observe the
// departure instead of deadlocking, and Join adds a party back (the reborn
// rank). Both are legal at any point of the barrier cycle.
type Barrier struct {
	mu      Mutex
	cond    cond
	parties int
	count   int
	gen     int
	// genBroken marks the generation currently forming as broken (a party
	// left while it was incomplete); lastBroken is the completed status of
	// the most recently released generation, read by its waiters.
	genBroken  bool
	lastBroken bool
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("sim: barrier needs at least one party")
	}
	b := &Barrier{parties: parties}
	b.cond.m = &b.mu
	return b
}

// Parties returns the current number of parties.
func (b *Barrier) Parties() int { return b.parties }

// Gen returns the number of generations tripped so far. In a cooperative
// kernel a reader that has not parked since its last barrier operation
// observes a consistent value.
func (b *Barrier) Gen() int { return b.gen }

// Await blocks until all parties arrive. A single-party barrier returns
// immediately without parking or advancing virtual time.
func (b *Barrier) Await(t *Thread) {
	b.AwaitBroken(t)
}

// AwaitBroken is Await, additionally reporting whether the generation it
// participated in was broken by a party leaving. Callers that can observe
// failures use this form; the simulated operations are identical to
// Await's, so runs that never break a generation are unaffected.
func (b *Barrier) AwaitBroken(t *Thread) bool {
	if b.parties == 1 {
		return b.consumeSolo()
	}
	b.mu.Lock(t)
	gen := b.gen
	b.count++
	if b.count == b.parties {
		b.release(t)
	} else {
		for gen == b.gen {
			b.cond.wait(t)
		}
	}
	// Every waiter reads its generation's status under the mutex before
	// any thread can start (let alone release) the next generation, so
	// lastBroken cannot be overwritten out from under a reader.
	broken := b.lastBroken
	b.mu.Unlock(t)
	return broken
}

// consumeSolo handles the parties==1 fast path: the sole party trips each
// generation by itself, consuming a pending break mark without parking.
// The generation counter still ticks — a late joiner (Barrier.Join) reads
// Gen() to learn how many generations the survivor completed alone.
func (b *Barrier) consumeSolo() bool {
	b.gen++
	broken := b.genBroken
	b.genBroken = false
	return broken
}

// release trips the generation: resets the arrival count, publishes the
// generation's broken status, and wakes every waiter. Caller holds b.mu.
func (b *Barrier) release(t *Thread) {
	b.count = 0
	b.gen++
	b.lastBroken = b.genBroken
	b.genBroken = false
	b.cond.broadcast(t)
}

// Leave removes the caller's party from the barrier, marking the
// generation in progress as broken. If the departing party was the only
// arrival missing, the generation trips immediately so current waiters
// run (and observe the break) instead of deadlocking.
//
// Leave reports whether any parties survive the departure. A sole party
// leaving cannot hand the job to anyone: the barrier keeps its single
// party (so it stays usable), the pending break mark is set for the next
// solo Await, and Leave returns false — the caller must abort the job
// with a structured error rather than expect survivors to carry on.
func (b *Barrier) Leave(t *Thread) bool {
	b.mu.Lock(t)
	if b.parties <= 1 {
		b.genBroken = true
		b.mu.Unlock(t)
		return false
	}
	b.parties--
	b.genBroken = true
	if b.count >= b.parties {
		b.release(t)
	}
	b.mu.Unlock(t)
	return true
}

// Join adds a party to the barrier (a node rejoining the computation). It
// never trips a generation: the new party's first Await simply counts
// toward the now-larger quorum.
func (b *Barrier) Join(t *Thread) {
	b.mu.Lock(t)
	b.parties++
	b.mu.Unlock(t)
}
