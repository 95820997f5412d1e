package sim

import "testing"

// The sim layer microbenchmarks: the kernel handoff, a Chan hop, the
// sleeper heap, a Barrier generation and a Station service. Each builds one kernel, starts
// the timer once its threads are spawned and reports the cost of one
// operation of the layer, handoffs included.

// BenchmarkHandoff measures one park/resume round trip: two runnable
// threads ping-pong through Yield, b.N times each.
func BenchmarkHandoff(b *testing.B) {
	k := NewKernel()
	for range 2 {
		k.Spawn("yield", func(th *Thread) {
			for range b.N {
				th.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanHop measures one value through a capacity-1 Chan from a
// producer to a consumer thread.
func BenchmarkChanHop(b *testing.B) {
	k := NewKernel()
	ch := NewChan[int](1)
	k.Spawn("send", func(th *Thread) {
		for i := range b.N {
			ch.Send(th, i)
		}
		ch.Close(th)
	})
	k.Spawn("recv", func(th *Thread) {
		for {
			if _, ok := ch.Recv(th); !ok {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleeperHeap measures one parked Sleep: 64 threads with
// staggered durations keep the sleeper heap populated, so every Sleep is
// a heap push and a later pop.
func BenchmarkSleeperHeap(b *testing.B) {
	const sleepers = 64
	k := NewKernel()
	for i := range sleepers {
		n := b.N / sleepers
		if i < b.N%sleepers {
			n++
		}
		d := Duration(i+1) * Microsecond
		k.Spawn("sleeper", func(th *Thread) {
			for range n {
				th.Sleep(d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrierGeneration measures one generation of an 8-party
// Barrier: every party arrives, the last releases the rest.
func BenchmarkBarrierGeneration(b *testing.B) {
	const parties = 8
	k := NewKernel()
	bar := NewBarrier(parties)
	for range parties {
		k.Spawn("party", func(th *Thread) {
			for range b.N {
				bar.Await(th)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStationServe measures one contended Serve: 8 threads share a
// 2-server Station, so most services queue, park and are handed a server
// by a Release.
func BenchmarkStationServe(b *testing.B) {
	const clients = 8
	k := NewKernel()
	st := NewStation(2)
	for i := range clients {
		n := b.N / clients
		if i < b.N%clients {
			n++
		}
		k.Spawn("client", func(th *Thread) {
			for range n {
				st.Serve(th, Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
