// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel multiplexes simulated threads over a virtual clock. Each thread
// is an iter.Pull coroutine: the kernel resumes it with next and the thread
// parks with yield, so control passes directly between the two goroutines
// (runtime.coroswitch) rather than through channels and the Go scheduler.
// Exactly one goroutine — either the kernel or a single simulated thread —
// runs at any moment, so kernel and thread state need no locking and every
// run with the same inputs produces the same event order, the same virtual
// timestamps, and therefore bit-identical experiment results.
//
// Simulated threads block on virtual time (Sleep), on synchronization
// primitives (Mutex, Semaphore, Barrier, Chan), or on resources built from
// those primitives (see internal/storage). Virtual time advances only when
// no thread is runnable. The only timers are sleeping threads: the kernel
// keeps them in a heap ordered by (wake time, sleep sequence number) and
// wakes the earliest when the run queue is empty.
//
// # Fast paths
//
// The scheduling hot path is built so the common case performs no heap
// allocation and no goroutine switch:
//
//   - Inline time-warp: when a sleeping thread is the only runnable thread
//     and no other sleeper wakes before its deadline, Sleep advances the
//     clock in place and returns — no heap push, no park, no kernel round
//     trip. The observable schedule is identical to the parked path
//     (nothing else could have run in between), so results stay
//     bit-identical.
//   - Zero-alloc sleep: the parked path stores the wake time on the Thread
//     itself and pushes the thread onto the sleeper heap, so even contended
//     sleeps allocate nothing in steady state.
//   - The ready queue is a growable ring buffer rather than a slice that is
//     re-sliced from the front, so enqueue/dequeue never shift or leak
//     backing arrays.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Duration is a span of virtual time in nanoseconds.
type Duration = int64

// Virtual time units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds converts a virtual Duration to seconds.
func Seconds(d Duration) float64 { return float64(d) / float64(Second) }

// FromMillis converts milliseconds to a virtual Duration.
func FromMillis(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// FromMicros converts microseconds to a virtual Duration.
func FromMicros(us float64) Duration { return Duration(us * float64(Microsecond)) }

type threadState int

const (
	stateNew threadState = iota
	stateReady
	stateRunning
	stateSleeping
	stateBlocked
	stateDone
)

func (s threadState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// readyRing is a growable FIFO ring buffer of runnable threads. Unlike the
// previous `ready = ready[1:]` slicing, dequeue is O(1) with no backing
// array churn: steady-state push/pop never allocates.
type readyRing struct {
	buf  []*Thread
	head int
	n    int
}

func (q *readyRing) push(t *Thread) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

func (q *readyRing) pop() *Thread {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}

func (q *readyRing) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]*Thread, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Kernel is a deterministic discrete-event scheduler. The zero value is not
// usable; create one with NewKernel.
type Kernel struct {
	now      int64
	seq      uint64
	sleepers sleeperHeap
	ready    readyRing
	cur      *Thread
	threads  []*Thread
	live     int
	nextTID  int
	stopped  bool

	// ForceSlowPath disables the inline time-warp and yield fast paths so
	// equivalence tests can prove the fast paths are observationally
	// identical to the fully parked schedule. Never set in production runs.
	ForceSlowPath bool
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time in nanoseconds.
func (k *Kernel) Now() int64 { return k.now }

// Live returns the number of spawned threads that have not yet exited.
func (k *Kernel) Live() int { return k.live }

// Spawn creates a new simulated thread that will run fn. It may be called
// before Run or from inside a running simulated thread. The thread becomes
// runnable immediately (FIFO order with other ready threads).
func (k *Kernel) Spawn(name string, fn func(t *Thread)) *Thread {
	t := &Thread{k: k, id: k.nextTID, name: name, state: stateReady}
	k.nextTID++
	k.live++
	k.threads = append(k.threads, t)
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		// However the body ends, the thread is done: a return, the
		// Shutdown kill sentinel (absorbed, so a reaped thread exits
		// cleanly) or a real panic, which iter.Pull carries out of
		// t.next to Run on the kernel's goroutine.
		defer func() {
			t.state = stateDone
			k.live--
			if r := recover(); r != nil {
				if _, ok := r.(threadKilled); !ok {
					panic(r)
				}
			}
		}()
		if !k.stopped {
			fn(t)
		}
	})
	k.ready.push(t)
	return t
}

// threadKilled is the panic sentinel Shutdown uses to unwind a parked
// thread's goroutine through arbitrarily deep call stacks.
type threadKilled struct{}

// makeReady moves a parked thread to the back of the run queue.
func (k *Kernel) makeReady(t *Thread) {
	if k.stopped {
		// A dying thread's deferred cleanup (Unlock, channel close, ...) may
		// wake peers mid-Shutdown; they are about to be reaped themselves.
		return
	}
	if t.state == stateDone || t.state == stateReady || t.state == stateRunning {
		panic(fmt.Sprintf("sim: makeReady on thread %q in state %v", t.name, t.state))
	}
	t.state = stateReady
	k.ready.push(t)
}

func (k *Kernel) runThread(t *Thread) {
	t.state = stateRunning
	k.cur = t
	if _, ok := t.next(); !ok {
		// The body returned: drop the coroutine so the thread record
		// does not keep its closure reachable for the rest of the run.
		t.next, t.yield = nil, nil
	}
	k.cur = nil
}

// Run executes the simulation until every thread has exited. If threads
// remain but none can ever become runnable, Run reaps them (see Shutdown)
// and returns a DeadlockError naming them. A panic in a thread body
// surfaces from Run on the caller's goroutine, after the panicking thread
// is marked done and every other thread is reaped.
func (k *Kernel) Run() error {
	defer func() {
		if r := recover(); r != nil {
			k.cur = nil
			k.Shutdown()
			panic(r)
		}
	}()
	for {
		if k.ready.n > 0 {
			t := k.ready.pop()
			if t.state != stateReady {
				panic(fmt.Sprintf("sim: thread %q on run queue in state %v", t.name, t.state))
			}
			k.runThread(t)
			continue
		}
		if len(k.sleepers) > 0 {
			t := k.sleepers.pop()
			if t.wake < k.now {
				panic("sim: sleeper woke in the past")
			}
			k.now = t.wake
			k.makeReady(t)
			continue
		}
		if k.live > 0 {
			err := k.deadlockError()
			k.Shutdown()
			return err
		}
		return nil
	}
}

// Shutdown reaps every thread that has not yet exited, releasing its
// coroutine goroutine. Run calls it before returning a DeadlockError; a
// kernel that is never run otherwise strands each spawned thread's
// coroutine, never started or parked in yield, forever.
//
// Shutdown must be called from the goroutine that owns the kernel (the one
// that called or would call Run), never from inside a simulated thread. It
// is idempotent, and a kernel cannot be Run again afterwards.
func (k *Kernel) Shutdown() {
	if k.stopped {
		return
	}
	k.stopped = true
	for _, t := range k.threads {
		if t.state != stateDone {
			// Resume the coroutine: new threads see k.stopped and skip
			// their body; parked threads unwind via the threadKilled
			// sentinel.
			t.next()
		}
		t.next, t.yield = nil, nil
	}
}

// Stopped reports whether Shutdown has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// DeadlockError reports the set of threads that can never run again.
type DeadlockError struct {
	Time    int64
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%dns: %d thread(s) blocked forever: %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

func (k *Kernel) deadlockError() error {
	var blocked []string
	for _, t := range k.threads {
		if t.state != stateDone {
			blocked = append(blocked, fmt.Sprintf("%s(%v on %s)", t.name, t.state, t.blockedOn))
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: k.now, Blocked: blocked}
}

// Thread is a simulated thread of execution. All methods must be called from
// inside the thread's own function (they park the calling goroutine).
type Thread struct {
	k         *Kernel
	id        int
	name      string
	state     threadState
	blockedOn string

	// next resumes the thread's coroutine from the kernel; yield parks it
	// from inside. Both are dropped once the body has returned.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// wake and wakeSeq order the thread in the kernel's sleeper heap while
	// it sleeps: a thread has at most one pending sleep, so its wake time
	// lives on the thread and a parked Sleep allocates nothing.
	wake    int64
	wakeSeq uint64

	// scratch slot used by Chan handoff.
	chanVal any
	chanOK  bool
}

// ID returns the thread's unique id (assigned in spawn order).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// Now returns the current virtual time.
func (t *Thread) Now() int64 { return t.k.now }

// park blocks the calling thread until another component calls makeReady.
func (t *Thread) park(state threadState, desc string) {
	if t.k.stopped {
		panic(threadKilled{})
	}
	if t.k.cur != t {
		panic(fmt.Sprintf("sim: thread %q parked while not current (cur=%v)", t.name, t.k.cur))
	}
	t.state = state
	t.blockedOn = desc
	t.yield(struct{}{})
	if t.k.stopped {
		panic(threadKilled{})
	}
	t.blockedOn = ""
}

// Sleep advances the thread by d of virtual time. Non-positive durations
// yield the processor without advancing the clock.
//
// When the caller is the sole runnable thread and no other sleeper wakes
// before the deadline, the clock is warped forward inline — no heap push,
// no park, no goroutine switch — which is observationally identical to the
// parked path because nothing else could have been scheduled in the
// interval.
func (t *Thread) Sleep(d Duration) {
	if d <= 0 {
		t.Yield()
		return
	}
	k := t.k
	deadline := k.now + d
	if k.ready.n == 0 && !k.ForceSlowPath && !k.stopped {
		if len(k.sleepers) == 0 || k.sleepers[0].wake > deadline {
			// Inline time-warp: a sleeper due at exactly `deadline` would
			// wake first under the parked schedule (it slept earlier), so
			// equality takes the slow path.
			k.now = deadline
			return
		}
	}
	t.wake = deadline
	t.wakeSeq = k.seq
	k.seq++
	k.sleepers.push(t)
	t.park(stateSleeping, "sleep")
}

// sleeperHeap is a binary min-heap of sleeping threads ordered by wake
// time, breaking ties by the order in which they went to sleep, which
// keeps the schedule deterministic. The (wake, wakeSeq) keys are unique,
// so the pop order is the same for any valid heap layout.
type sleeperHeap []*Thread

// wakesBefore reports whether a is due to wake before b.
func wakesBefore(a, b *Thread) bool {
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	return a.wakeSeq < b.wakeSeq
}

// push adds t, sifting it up from the bottom.
func (h *sleeperHeap) push(t *Thread) {
	*h = append(*h, t)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !wakesBefore(t, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = t
}

// pop removes and returns the earliest sleeper, sifting the last one down
// from the top.
func (h *sleeperHeap) pop() *Thread {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && wakesBefore(s[r], s[c]) {
			c = r
		}
		if !wakesBefore(s[c], last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// Yield requeues the thread at the back of the run queue without advancing
// virtual time. With an empty run queue the yield is a no-op: the parked
// schedule would immediately re-select this thread at the same instant.
func (t *Thread) Yield() {
	k := t.k
	if k.ready.n == 0 && !k.ForceSlowPath && !k.stopped {
		return
	}
	t.state = stateBlocked
	k.makeReady(t)
	t.park(stateReady, "yield")
	t.state = stateRunning
}
