package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChanBufferedFIFO(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](4)
	var got []int
	k.Spawn("producer", func(th *Thread) {
		for i := 0; i < 20; i++ {
			ch.Send(th, i)
		}
		ch.Close(th)
	})
	k.Spawn("consumer", func(th *Thread) {
		for {
			v, ok := ch.Recv(th)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("received %d values, want 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestChanUnbufferedRendezvous(t *testing.T) {
	k := NewKernel()
	ch := NewChan[string](0)
	var sentAt, recvAt int64
	k.Spawn("sender", func(th *Thread) {
		ch.Send(th, "x")
		sentAt = th.Now()
	})
	k.Spawn("receiver", func(th *Thread) {
		th.Sleep(5 * Millisecond)
		if v, ok := ch.Recv(th); !ok || v != "x" {
			t.Errorf("recv = %q, %v", v, ok)
		}
		recvAt = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt != 5*Millisecond || recvAt != 5*Millisecond {
		t.Fatalf("sentAt=%d recvAt=%d, want rendezvous at 5ms", sentAt, recvAt)
	}
}

func TestChanBlocksProducerWhenFull(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](2)
	var lastSend int64
	k.Spawn("producer", func(th *Thread) {
		for i := 0; i < 3; i++ {
			ch.Send(th, i)
		}
		lastSend = th.Now()
	})
	k.Spawn("consumer", func(th *Thread) {
		th.Sleep(10 * Millisecond)
		for i := 0; i < 3; i++ {
			ch.Recv(th)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lastSend != 10*Millisecond {
		t.Fatalf("third send completed at %d, want 10ms (blocked on full buffer)", lastSend)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](0)
	closedSeen := 0
	for i := 0; i < 3; i++ {
		k.Spawn("r", func(th *Thread) {
			if _, ok := ch.Recv(th); !ok {
				closedSeen++
			}
		})
	}
	k.Spawn("closer", func(th *Thread) {
		th.Sleep(Millisecond)
		ch.Close(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if closedSeen != 3 {
		t.Fatalf("closedSeen = %d, want 3", closedSeen)
	}
}

func TestChanDrainAfterClose(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](8)
	var got []int
	k.Spawn("p", func(th *Thread) {
		for i := 0; i < 5; i++ {
			ch.Send(th, i)
		}
		ch.Close(th)
		for {
			v, ok := ch.Recv(th)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("drained %d values, want 5", len(got))
	}
}

func TestChanNilValueRoundTrip(t *testing.T) {
	k := NewKernel()
	ch := NewChan[any](0)
	k.Spawn("r", func(th *Thread) {
		v, ok := ch.Recv(th)
		if !ok || v != nil {
			t.Errorf("recv = %v, %v; want nil, true", v, ok)
		}
	})
	k.Spawn("s", func(th *Thread) {
		th.Sleep(Millisecond)
		ch.Send(th, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of producer/consumer counts and capacity, all sent
// values are received exactly once and per-producer order is preserved.
func TestChanPropertyAllDeliveredInOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		producers := 1 + rng.Intn(4)
		perProducer := 1 + rng.Intn(30)
		capacity := rng.Intn(5)
		consumers := 1 + rng.Intn(3)

		k := NewKernel()
		ch := NewChan[[2]int](capacity)
		done := NewChan[struct{}](producers)
		for p := 0; p < producers; p++ {
			p := p
			k.Spawn("p", func(th *Thread) {
				for i := 0; i < perProducer; i++ {
					th.Sleep(Duration(rng.Intn(100)) * Microsecond)
					ch.Send(th, [2]int{p, i})
				}
				done.Send(th, struct{}{})
			})
		}
		k.Spawn("closer", func(th *Thread) {
			for p := 0; p < producers; p++ {
				done.Recv(th)
			}
			ch.Close(th)
		})
		received := make([][]int, producers)
		for cI := 0; cI < consumers; cI++ {
			k.Spawn("c", func(th *Thread) {
				for {
					v, ok := ch.Recv(th)
					if !ok {
						return
					}
					received[v[0]] = append(received[v[0]], v[1])
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		total := 0
		for p := 0; p < producers; p++ {
			total += len(received[p])
			for i, v := range received[p] {
				if v != i {
					return false // per-producer order broken
				}
			}
		}
		return total == producers*perProducer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
