package sim

import (
	"errors"
	"runtime"
	"testing"
)

// TestSleepFastPathMatchesSlowPath drives an identical multi-thread
// schedule, with a third sleeper due at the same deadline as one of the
// others, with the inline time-warp enabled and disabled and requires the
// same event order and timestamps: the fast path must be observationally
// invisible.
func TestSleepFastPathMatchesSlowPath(t *testing.T) {
	run := func(force bool) (trace []int64, end int64) {
		k := NewKernel()
		k.ForceSlowPath = force
		var mu Mutex
		k.Spawn("c", func(th *Thread) {
			th.Sleep(3 * Millisecond)
			trace = append(trace, -1)
		})
		k.Spawn("a", func(th *Thread) {
			for i := 0; i < 5; i++ {
				th.Sleep(Millisecond)
				trace = append(trace, th.Now())
			}
			mu.Lock(th)
			th.Sleep(10 * Millisecond) // sole runnable: warp candidate
			mu.Unlock(th)
			trace = append(trace, th.Now())
		})
		k.Spawn("b", func(th *Thread) {
			th.Sleep(2 * Millisecond)
			mu.Lock(th)
			trace = append(trace, th.Now())
			mu.Unlock(th)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace, k.Now()
	}
	fastTrace, fastEnd := run(false)
	slowTrace, slowEnd := run(true)
	if fastEnd != slowEnd {
		t.Fatalf("end time diverged: fast %d, slow %d", fastEnd, slowEnd)
	}
	if len(fastTrace) != len(slowTrace) {
		t.Fatalf("trace lengths diverged: fast %v, slow %v", fastTrace, slowTrace)
	}
	for i := range fastTrace {
		if fastTrace[i] != slowTrace[i] {
			t.Fatalf("trace[%d] diverged: fast %v, slow %v", i, fastTrace, slowTrace)
		}
	}
}

// TestSleepFastPathRespectsEqualDeadlineTimer pins the boundary condition:
// a thread already asleep until exactly the sole runnable thread's deadline
// went to sleep first, so it must wake before that thread resumes; the
// warp must not skip it.
func TestSleepFastPathRespectsEqualDeadlineTimer(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("first", func(th *Thread) {
		th.Sleep(Millisecond)
		order = append(order, "first")
	})
	k.Spawn("s", func(th *Thread) {
		th.Sleep(Millisecond) // sole runnable, deadline equal to first's
		order = append(order, "sleeper")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "sleeper" {
		t.Fatalf("order = %v, want [first sleeper]", order)
	}
}

// TestSoleThreadSleepZeroAlloc pins the tentpole contract: a sole runnable
// thread's Sleep allocates nothing.
func TestSoleThreadSleepZeroAlloc(t *testing.T) {
	k := NewKernel()
	var allocs float64
	k.Spawn("bench", func(th *Thread) {
		allocs = testing.AllocsPerRun(1000, func() {
			th.Sleep(100 * Nanosecond)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("sole-thread Sleep: %v allocs/op, want 0", allocs)
	}
}

// TestParkedSleepZeroAllocSteadyState pins the slow path: even when the
// sleeper must park (a second runnable thread exists), the reusable
// embedded timer keeps steady-state Sleep at 0 allocs/op.
func TestParkedSleepZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	var allocs float64
	done := false
	k.Spawn("peer", func(th *Thread) {
		for !done {
			th.Sleep(50 * Nanosecond)
		}
	})
	k.Spawn("bench", func(th *Thread) {
		// Warm up so the timer heap and ready ring reach capacity.
		for i := 0; i < 64; i++ {
			th.Sleep(100 * Nanosecond)
		}
		allocs = testing.AllocsPerRun(1000, func() {
			th.Sleep(100 * Nanosecond)
		})
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("parked Sleep steady state: %v allocs/op, want 0", allocs)
	}
}

// TestUncontendedMutexZeroAlloc pins Lock/Unlock with no contention at 0
// allocs/op.
func TestUncontendedMutexZeroAlloc(t *testing.T) {
	k := NewKernel()
	var mu Mutex
	var allocs float64
	k.Spawn("bench", func(th *Thread) {
		allocs = testing.AllocsPerRun(1000, func() {
			mu.Lock(th)
			mu.Unlock(th)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("uncontended Lock/Unlock: %v allocs/op, want 0", allocs)
	}
}

// TestSemaphoreSteadyStateZeroAlloc pins the uncontended and steady-state
// contended Acquire/Release paths at 0 allocs/op.
func TestSemaphoreSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(1)
	var uncontended float64
	k.Spawn("bench", func(th *Thread) {
		uncontended = testing.AllocsPerRun(1000, func() {
			sem.Acquire(th, 1)
			sem.Release(th, 1)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if uncontended != 0 {
		t.Fatalf("uncontended Acquire/Release: %v allocs/op, want 0", uncontended)
	}
}

// TestShutdownReapsBlockedThreads covers the reaping of every blocked
// shape: mutex waiter, semaphore waiter and channel receiver (which Run
// reaps when it reports the deadlock), and a never-started thread on a
// kernel that is shut down without running.
func TestShutdownReapsBlockedThreads(t *testing.T) {
	k := NewKernel()
	var mu Mutex
	sem := NewSemaphore(0)
	ch := NewChan[int](0)
	k.Spawn("holder", func(th *Thread) { mu.Lock(th) }) // exits holding
	k.Spawn("mutex-waiter", func(th *Thread) { mu.Lock(th) })
	k.Spawn("sem-waiter", func(th *Thread) { sem.Acquire(th, 1) })
	k.Spawn("recv-waiter", func(th *Thread) { ch.Recv(th) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if k.Live() != 0 {
		t.Fatalf("after deadlock: %d live threads, want 0", k.Live())
	}
	k.Shutdown() // idempotent

	idle := NewKernel()
	idle.Spawn("never-started", func(th *Thread) { th.Sleep(Second) })
	idle.Shutdown()
	if idle.Live() != 0 {
		t.Fatalf("after Shutdown: %d live threads, want 0", idle.Live())
	}
	if !idle.Stopped() {
		t.Fatal("Stopped() = false after Shutdown")
	}
}

// TestShutdownRunsDeferredCleanup verifies a reaped thread's defers run
// (the kill unwinds the stack rather than abandoning it), including defers
// that touch sim primitives. Run reaps the deadlocked worker itself.
func TestShutdownRunsDeferredCleanup(t *testing.T) {
	k := NewKernel()
	var mu Mutex
	cleaned := false
	k.Spawn("worker", func(th *Thread) {
		mu.Lock(th)
		defer func() {
			cleaned = true
			mu.Unlock(th)
		}()
		th.park(stateBlocked, "forever")
	})
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run during Shutdown")
	}
	if k.Live() != 0 {
		t.Fatalf("after Shutdown: %d live threads", k.Live())
	}
}

// TestReadyRingWrapAround exercises the ring buffer through growth and
// wrap-around with a churning spawn/sleep pattern.
func TestReadyRingWrapAround(t *testing.T) {
	k := NewKernel()
	var ran int
	for i := 0; i < 100; i++ {
		k.Spawn("w", func(th *Thread) {
			th.Sleep(Duration(1+ran%7) * Microsecond)
			ran++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("ran %d threads, want 100", ran)
	}
}

// TestYieldFastPathNoOpWhenAlone verifies a sole thread's Yield returns at
// the same instant without a kernel round trip, matching the parked
// schedule.
func TestYieldFastPathNoOpWhenAlone(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(th *Thread) {
		before := th.Now()
		th.Yield()
		if th.Now() != before {
			t.Errorf("Yield advanced the clock: %d -> %d", before, th.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestContendedYieldZeroAlloc pins the coroutine handoff: a park/resume
// round trip between two runnable threads allocates nothing.
func TestContendedYieldZeroAlloc(t *testing.T) {
	k := NewKernel()
	var allocs float64
	done := false
	k.Spawn("peer", func(th *Thread) {
		for !done {
			th.Yield()
		}
	})
	k.Spawn("bench", func(th *Thread) {
		for i := 0; i < 64; i++ {
			th.Yield()
		}
		allocs = testing.AllocsPerRun(1000, th.Yield)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("contended Yield: %v allocs/op, want 0", allocs)
	}
}

// TestNoGoroutineLeakAfterRun ends kernels alternately in a reaped
// deadlock and a normal exit and requires every thread's coroutine
// goroutine to be gone afterwards.
func TestNoGoroutineLeakAfterRun(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k := NewKernel()
		ch := NewChan[int](1)
		k.Spawn("sender", func(th *Thread) {
			th.Sleep(Microsecond)
			ch.Send(th, i)
		})
		k.Spawn("receiver", func(th *Thread) {
			ch.Recv(th)
			if i%2 == 0 {
				ch.Recv(th) // nobody sends again: deadlock
			}
		})
		err := k.Run()
		var dl *DeadlockError
		if deadlock := errors.As(err, &dl); deadlock != (i%2 == 0) || (!deadlock && err != nil) {
			t.Fatalf("kernel %d: Run = %v", i, err)
		}
		if k.Live() != 0 {
			t.Fatalf("kernel %d: %d live threads after Run", i, k.Live())
		}
	}
	// The previous test's goroutine may still be exiting when base is
	// read, so the count can drop below it; a leak raises it.
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines: %d after 50 kernels, want at most baseline %d", n, base)
	}
}

// TestThreadPanicSurfacesFromRun verifies a panic in a thread body
// reaches Run's caller with its original value, and that Run first marks
// the panicking thread done and reaps its parked peer (running the peer's
// defers) so no thread or goroutine is left behind.
func TestThreadPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ch := NewChan[int](0)
	reaped := false
	k.Spawn("peer", func(th *Thread) {
		defer func() { reaped = true }()
		ch.Recv(th)
	})
	k.Spawn("boom", func(th *Thread) {
		th.Sleep(Millisecond)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if k.Live() != 0 {
		t.Fatalf("after panic: %d live threads, want 0", k.Live())
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false after a thread panic")
	}
	if !reaped {
		t.Fatal("parked peer was not reaped")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines: %d after the panic, want at most baseline %d", n, base)
	}
}
