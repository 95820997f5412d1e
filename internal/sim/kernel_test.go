package sim

import (
	"cmp"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestSingleThreadSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke int64
	k.Spawn("a", func(th *Thread) {
		th.Sleep(5 * Millisecond)
		woke = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*Millisecond {
		t.Fatalf("woke at %d, want %d", woke, 5*Millisecond)
	}
	if k.Now() != 5*Millisecond {
		t.Fatalf("kernel time %d, want %d", k.Now(), 5*Millisecond)
	}
}

func TestSleepOrderingIsDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, spec := range []struct {
			name string
			d    Duration
		}{{"c", 3 * Second}, {"a", 1 * Second}, {"b", 2 * Second}, {"a2", 1 * Second}} {
			spec := spec
			k.Spawn(spec.name, func(th *Thread) {
				th.Sleep(spec.d)
				order = append(order, spec.name)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"a", "a2", "b", "c"}
	for trial := 0; trial < 10; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order %v, want %v", trial, got, want)
			}
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Spawn("a", func(th *Thread) {
		order = append(order, 1)
		th.Sleep(0)
		order = append(order, 3)
	})
	k.Spawn("b", func(th *Thread) {
		order = append(order, 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Fatalf("clock advanced to %d on zero sleep", k.Now())
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSpawnFromRunningThread(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", func(th *Thread) {
		th.Kernel().Spawn("child", func(c *Thread) {
			c.Sleep(Millisecond)
			childRan = true
		})
		th.Sleep(2 * Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	var m Mutex
	k.Spawn("holder", func(th *Thread) {
		m.Lock(th)
		// exits holding the lock
	})
	k.Spawn("waiter", func(th *Thread) {
		th.Sleep(Millisecond)
		m.Lock(th)
	})
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("blocked threads = %v, want exactly one", dl.Blocked)
	}
}

// TestRunReapsDeadlock pins that Run never strands goroutines: once it has
// returned a DeadlockError, every thread has exited and the kernel is
// stopped without an explicit Shutdown.
func TestRunReapsDeadlock(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](0)
	k.Spawn("sender", func(th *Thread) {
		th.Sleep(Millisecond)
		ch.Send(th, 1)
	})
	k.Spawn("receiver", func(th *Thread) {
		ch.Recv(th)
		ch.Recv(th)
	})
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if k.Live() != 0 {
		t.Fatalf("after deadlock: %d live threads, want 0", k.Live())
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false after a deadlocked Run")
	}
}

// TestSameDeadlineSleepersWakeInSpawnOrder pins the sleeper heap's tie
// break: threads due at the same instant wake in the order they went to
// sleep, here their spawn order.
func TestSameDeadlineSleepersWakeInSpawnOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 1; i <= 3; i++ {
		k.Spawn("s", func(th *Thread) {
			th.Sleep(Second)
			order = append(order, i)
		})
	}
	k.Spawn("a", func(th *Thread) { th.Sleep(2 * Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("woke %v, want three sleepers", order)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("same-deadline sleepers woke out of order: %v", order)
		}
	}
}

// TestSleeperHeapPopsInKeyOrder drives the sleeper heap directly with
// interleaved pushes and pops of random (wake, wakeSeq) keys, many of
// them sharing a wake time, and checks every pop is the least key left.
func TestSleeperHeapPopsInKeyOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var h sleeperHeap
	var left []*Thread
	var seq uint64
	for step := range 6000 {
		if len(h) == 0 || r.IntN(3) > 0 && step < 4000 {
			th := &Thread{wake: r.Int64N(64), wakeSeq: seq}
			seq++
			h.push(th)
			left = append(left, th)
			continue
		}
		got := h.pop()
		least := slices.MinFunc(left, func(a, b *Thread) int {
			return cmp.Or(cmp.Compare(a.wake, b.wake), cmp.Compare(a.wakeSeq, b.wakeSeq))
		})
		if got != least {
			t.Fatalf("step %d: popped (%d, %d), want (%d, %d)", step, got.wake, got.wakeSeq, least.wake, least.wakeSeq)
		}
		left = slices.DeleteFunc(left, func(th *Thread) bool { return th == got })
		if len(h) != len(left) {
			t.Fatalf("step %d: heap holds %d sleepers, want %d", step, len(h), len(left))
		}
	}
}

func TestManyThreadsInterleaveDeterministically(t *testing.T) {
	const n = 50
	run := func() int64 {
		k := NewKernel()
		var sum int64
		for i := 0; i < n; i++ {
			i := i
			k.Spawn("w", func(th *Thread) {
				for j := 0; j < 10; j++ {
					th.Sleep(Duration(i+1) * Microsecond)
					sum = sum*31 + th.Now()%1009
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); got != first {
			t.Fatalf("non-deterministic interleaving: %d != %d", got, first)
		}
	}
}

func TestCPUSetContention(t *testing.T) {
	k := NewKernel()
	cpu := NewCPUSet(2)
	done := NewBarrier(5)
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(th *Thread) {
			cpu.Compute(th, 10*Millisecond)
			done.Await(th)
		})
	}
	var finished int64
	k.Spawn("waiter", func(th *Thread) {
		done.Await(th)
		finished = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 bursts of 10ms on 2 cores take 20ms.
	if finished != 20*Millisecond {
		t.Fatalf("finished at %d, want %d", finished, 20*Millisecond)
	}
	if busy := cpu.cores.Busy(finished); busy != 40*Millisecond {
		t.Fatalf("busy time %d, want %d", busy, 40*Millisecond)
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(1500 * Millisecond); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := FromMillis(0.5); got != 500*Microsecond {
		t.Fatalf("FromMillis = %v", got)
	}
	if got := FromMicros(3); got != 3*Microsecond {
		t.Fatalf("FromMicros = %v", got)
	}
}
