package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stationArrival is one request of a seeded workload: it arrives at at and
// holds a server for d (zero included: Serve still yields).
type stationArrival struct {
	at, d Duration
}

func stationWorkload(seed int64, n int) []stationArrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stationArrival, n)
	for i := range out {
		out[i] = stationArrival{at: Duration(rng.Intn(2000)) * Microsecond, d: Duration(rng.Intn(400)) * Microsecond}
	}
	return out
}

// serveOrder runs the workload on a kernel where each request takes a
// server through acquire, sleeps d and gives it back through release,
// while a sampler thread calls sample every 37 µs. It returns the request
// ids in the order they were granted a server and the last release time.
func serveOrder(t *testing.T, reqs []stationArrival, acquire, release func(*Thread), sample func(*Thread)) (order []int, end int64) {
	t.Helper()
	k := NewKernel()
	live := len(reqs)
	for i, r := range reqs {
		k.Spawn(fmt.Sprintf("req%d", i), func(th *Thread) {
			th.Sleep(r.at)
			acquire(th)
			order = append(order, i)
			th.Sleep(r.d)
			release(th)
			live--
			end = th.Now()
		})
	}
	k.Spawn("sampler", func(th *Thread) {
		for live > 0 {
			th.Sleep(37 * Microsecond)
			sample(th)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return order, end
}

// TestStationUtilizationBounded drives seeded random arrivals through 1,
// 7 and 64 servers. Over every sampling interval the busy time grows by at
// most servers × the interval; under Serve-only load the total is exactly
// the sum of the service times; and the station grants servers in the
// same order, at the same instants, as a bare Semaphore.
func TestStationUtilizationBounded(t *testing.T) {
	for _, servers := range []int{1, 7, 64} {
		t.Run(fmt.Sprint(servers), func(t *testing.T) {
			reqs := stationWorkload(int64(servers), 400)
			var sum Duration
			for _, r := range reqs {
				sum += r.d
			}

			st := NewStation(servers)
			var prevNow int64
			var prevBusy Duration
			sample := func(th *Thread) {
				now, busy := th.Now(), st.Busy(th.Now())
				if busy < prevBusy || busy-prevBusy > Duration(servers)*(now-prevNow) {
					t.Errorf("busy %d → %d over [%d, %d] on %d servers", prevBusy, busy, prevNow, now, servers)
				}
				prevNow, prevBusy = now, busy
			}
			got, end := serveOrder(t, reqs, st.Acquire, st.Release, sample)
			if busy := st.Busy(end); busy != sum {
				t.Errorf("busy %d, want Σd = %d", busy, sum)
			}
			if busy := st.Busy(end); busy > Duration(servers)*end {
				t.Errorf("busy %d exceeds %d servers × %d elapsed", busy, servers, end)
			}

			sem := NewSemaphore(servers)
			want, wantEnd := serveOrder(t, reqs,
				func(th *Thread) { sem.Acquire(th, 1) }, func(th *Thread) { sem.Release(th, 1) }, func(*Thread) {})
			if !slices.Equal(got, want) || end != wantEnd {
				t.Errorf("station order %v ending at %d, semaphore order %v ending at %d", got, end, want, wantEnd)
			}

			// Serve is Acquire, Sleep, Release: the same busy total.
			served := NewStation(servers)
			k := NewKernel()
			for i, r := range reqs {
				k.Spawn(fmt.Sprintf("serve%d", i), func(th *Thread) {
					th.Sleep(r.at)
					served.Serve(th, r.d)
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if busy := served.Busy(k.Now()); busy != sum || k.Now() != end {
				t.Errorf("Serve: busy %d ending at %d, want %d ending at %d", busy, k.Now(), sum, end)
			}
		})
	}
}

// TestStationServeZeroAlloc pins uncontended and steady-state contended
// Serve at 0 allocs/op. Three peers keep the one-server station's waiter
// queue from ever draining, so its slice must be reused in place.
func TestStationServeZeroAlloc(t *testing.T) {
	k := NewKernel()
	solo := NewStation(1)
	var uncontended float64
	k.Spawn("bench", func(th *Thread) {
		uncontended = testing.AllocsPerRun(1000, func() {
			solo.Serve(th, 100*Nanosecond)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if uncontended != 0 {
		t.Fatalf("uncontended Serve: %v allocs/op, want 0", uncontended)
	}

	k = NewKernel()
	shared := NewStation(1)
	var contended float64
	done := false
	for range 3 {
		k.Spawn("peer", func(th *Thread) {
			for !done {
				shared.Serve(th, 50*Nanosecond)
			}
		})
	}
	k.Spawn("bench", func(th *Thread) {
		// Warm up so the waiter queue, timer heap and ready ring reach
		// capacity.
		for range 64 {
			shared.Serve(th, 100*Nanosecond)
		}
		// One run of many services, so an occasional regrowth of the
		// waiter queue is not averaged away.
		contended = testing.AllocsPerRun(1, func() {
			for range 10000 {
				shared.Serve(th, 100*Nanosecond)
			}
		})
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if contended != 0 {
		t.Fatalf("contended Serve: %v allocs per 10000, want 0", contended)
	}
}

// TestStationServeZeroYields: Serve(0) passes through Sleep, which yields,
// so a zero-length service still lets the other ready threads run first.
func TestStationServeZeroYields(t *testing.T) {
	k := NewKernel()
	st := NewStation(1)
	var order []string
	k.Spawn("a", func(th *Thread) {
		st.Serve(th, 0)
		order = append(order, "a")
	})
	k.Spawn("b", func(th *Thread) { order = append(order, "b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []string{"b", "a"}) {
		t.Fatalf("order %v, want [b a]", order)
	}
}
