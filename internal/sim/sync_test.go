package sim

import "testing"

func TestMutexMutualExclusion(t *testing.T) {
	k := NewKernel()
	var m Mutex
	counter := 0
	for i := 0; i < 10; i++ {
		k.Spawn("w", func(th *Thread) {
			for j := 0; j < 100; j++ {
				m.Lock(th)
				c := counter
				th.Sleep(Microsecond) // widen the race window
				counter = c + 1
				m.Unlock(th)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 1000 {
		t.Fatalf("counter = %d, want 1000", counter)
	}
}

func TestMutexFIFO(t *testing.T) {
	k := NewKernel()
	var m Mutex
	var order []int
	k.Spawn("holder", func(th *Thread) {
		m.Lock(th)
		th.Sleep(10 * Millisecond)
		m.Unlock(th)
	})
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("w", func(th *Thread) {
			th.Sleep(Duration(i+1) * Millisecond) // arrive in index order
			m.Lock(th)
			order = append(order, i)
			m.Unlock(th)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(3)
	inFlight, maxInFlight := 0, 0
	for i := 0; i < 10; i++ {
		k.Spawn("w", func(th *Thread) {
			sem.Acquire(th, 1)
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			th.Sleep(Millisecond)
			inFlight--
			sem.Release(th, 1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 3 {
		t.Fatalf("max in flight = %d, want 3", maxInFlight)
	}
}

func TestSemaphoreMultiPermit(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(4)
	var got []string
	k.Spawn("big", func(th *Thread) {
		sem.Acquire(th, 4)
		got = append(got, "big")
		th.Sleep(Millisecond)
		sem.Release(th, 4)
	})
	k.Spawn("small", func(th *Thread) {
		th.Sleep(Microsecond)
		sem.Acquire(th, 1)
		got = append(got, "small")
		sem.Release(th, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "big" || got[1] != "small" {
		t.Fatalf("order = %v", got)
	}
}

func TestCondSignalAndBroadcast(t *testing.T) {
	k := NewKernel()
	var m Mutex
	c := &cond{m: &m}
	ready := 0
	var woken int
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(th *Thread) {
			m.Lock(th)
			for ready == 0 {
				c.wait(th)
			}
			woken++
			m.Unlock(th)
		})
	}
	k.Spawn("signaler", func(th *Thread) {
		th.Sleep(Millisecond)
		m.Lock(th)
		ready = 1
		c.broadcast(th)
		m.Unlock(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestBarrierReleasesGenerationsTogether(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(3)
	const rounds = 4
	releases := make([][]int64, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("party", func(th *Thread) {
			for r := 0; r < rounds; r++ {
				th.Sleep(Duration(i+1) * Millisecond) // staggered arrivals
				bar.Await(th)
				releases[i] = append(releases[i], th.Now())
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if releases[0][r] != releases[1][r] || releases[1][r] != releases[2][r] {
			t.Fatalf("round %d released at different times: %v %v %v",
				r, releases[0][r], releases[1][r], releases[2][r])
		}
	}
	// Each round releases when the slowest party arrives.
	if releases[0][0] != 3*Millisecond {
		t.Fatalf("first release at %d, want 3ms", releases[0][0])
	}
}

func TestBarrierSinglePartyNoOp(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(1)
	k.Spawn("solo", func(th *Thread) {
		before := th.Now()
		bar.Await(th)
		if th.Now() != before {
			t.Error("single-party barrier advanced time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierLeaveSoleParty is the regression test for Leave on a
// single-party barrier: it must report no survivors (false) instead of
// panicking, leave the barrier usable, and hand the break mark to the
// next solo Await.
func TestBarrierLeaveSoleParty(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(1)
	k.Spawn("solo", func(th *Thread) {
		if bar.Leave(th) {
			t.Error("Leave on a single-party barrier reported survivors")
		}
		if bar.Parties() != 1 {
			t.Errorf("parties = %d after sole-party Leave, want 1", bar.Parties())
		}
		if !bar.AwaitBroken(th) {
			t.Error("Await after sole-party Leave did not observe the break")
		}
		if bar.AwaitBroken(th) {
			t.Error("break mark not consumed by the first solo Await")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierTwoVictimsSameGeneration: two parties leaving in the same
// incomplete generation shrink the quorum twice; the second departure is
// the one that trips the broken generation for the remaining waiters, in
// FIFO arrival order, and the shrunken barrier then cycles cleanly.
func TestBarrierTwoVictimsSameGeneration(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(4)
	var order []int
	var wakeNs [2]int64
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("survivor", func(th *Thread) {
			th.Sleep(Duration(i+1) * Millisecond) // pin arrival order 0, 1
			if !bar.AwaitBroken(th) {
				t.Errorf("survivor %d did not observe the broken generation", i)
			}
			order = append(order, i)
			wakeNs[i] = th.Now()
			// The next generation needs only the two survivors.
			if bar.AwaitBroken(th) {
				t.Errorf("survivor %d saw a break in the post-departure generation", i)
			}
		})
	}
	for v := 0; v < 2; v++ {
		v := v
		k.Spawn("victim", func(th *Thread) {
			th.Sleep(Duration(3+v) * Millisecond)
			if !bar.Leave(th) {
				t.Errorf("victim %d Leave reported no survivors", v)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bar.Parties() != 2 {
		t.Fatalf("parties = %d after two departures, want 2", bar.Parties())
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("wakeup order = %v, want FIFO [0 1]", order)
	}
	// Both survivors wake when the second victim's Leave trips the
	// generation at 4ms, not at the first victim's departure.
	if wakeNs[0] != 4*Millisecond || wakeNs[1] != 4*Millisecond {
		t.Fatalf("wake times = %v, want both at 4ms", wakeNs)
	}
}

// TestBarrierJoinRacingBrokenRelease: a party that joins while a soon-to-
// break generation is still forming becomes a full participant — its Join
// raises the quorum without tripping anything, the victim's Leave still
// trips the generation, and the joiner observes the break alongside the
// original waiters (all woken at the Leave instant, FIFO order).
func TestBarrierJoinRacingBrokenRelease(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(3)
	var survivorBroken [2]bool
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("survivor", func(th *Thread) {
			th.Sleep(Duration(i+1) * Millisecond)
			survivorBroken[i] = bar.AwaitBroken(th)
			// Second generation includes the joiner: three parties again.
			if bar.AwaitBroken(th) {
				t.Errorf("survivor %d saw a break after the quorum recovered", i)
			}
		})
	}
	var joinBroken bool
	var joinWakeNs int64
	k.Spawn("joiner", func(th *Thread) {
		// Join mid-generation, before the victim's Leave lands at 3ms.
		th.Sleep(2*Millisecond + 500*Microsecond)
		bar.Join(th)
		if bar.Parties() != 4 {
			t.Errorf("parties = %d after mid-generation Join, want 4", bar.Parties())
		}
		joinBroken = bar.AwaitBroken(th)
		joinWakeNs = th.Now()
		if bar.AwaitBroken(th) {
			t.Error("joiner saw a break after the quorum recovered")
		}
	})
	k.Spawn("victim", func(th *Thread) {
		th.Sleep(3 * Millisecond)
		// The joiner raised the quorum to 4; this Leave drops it to 3 and,
		// with all three live parties already arrived, trips immediately.
		if !bar.Leave(th) {
			t.Error("Leave reported no survivors")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !survivorBroken[0] || !survivorBroken[1] {
		t.Fatalf("survivors observed broken = %v, want both true", survivorBroken)
	}
	if !joinBroken {
		t.Fatal("joiner participated in the broken generation but did not observe the break")
	}
	if joinWakeNs != 3*Millisecond {
		t.Fatalf("joiner woke at %d, want the Leave instant 3ms", joinWakeNs)
	}
	if bar.Parties() != 3 {
		t.Fatalf("parties = %d after Leave+Join, want 3", bar.Parties())
	}
}

// TestBarrierLeaveByLastMissingArrival: when the departing party was the
// only arrival missing, the generation trips at the Leave instant and the
// waiters wake in FIFO arrival order.
func TestBarrierLeaveByLastMissingArrival(t *testing.T) {
	k := NewKernel()
	bar := NewBarrier(3)
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("waiter", func(th *Thread) {
			th.Sleep(Duration(i+1) * Millisecond)
			if !bar.AwaitBroken(th) {
				t.Errorf("waiter %d did not observe the break", i)
			}
			if th.Now() != 5*Millisecond {
				t.Errorf("waiter %d woke at %d, want the Leave instant 5ms", i, th.Now())
			}
			order = append(order, i)
		})
	}
	k.Spawn("victim", func(th *Thread) {
		th.Sleep(5 * Millisecond)
		if !bar.Leave(th) {
			t.Error("Leave with waiters parked reported no survivors")
		}
		if bar.Gen() != 1 {
			t.Errorf("gen = %d immediately after the tripping Leave, want 1", bar.Gen())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("wakeup order = %v, want FIFO [0 1]", order)
	}
}
