package sim

// Chan is a bounded FIFO channel for simulated threads, mirroring Go
// channel semantics: capacity 0 is a rendezvous channel, Recv on a closed
// drained channel returns ok=false, Send on a closed channel panics.
// Handoffs are explicit (a waking sender's value has already been consumed;
// a waking receiver's value has already been deposited), which keeps
// delivery order strictly FIFO and deterministic.
type Chan[T any] struct {
	buf    []T
	cap    int
	sendq  []*chanSender[T]
	recvq  []*Thread
	closed bool
}

type chanSender[T any] struct {
	t *Thread
	v T
}

// NewChan returns a channel with the given capacity (>= 0).
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{cap: capacity}
}

// Len returns the number of buffered elements.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Send delivers v, parking t until a receiver or buffer slot is available.
func (c *Chan[T]) Send(t *Thread, v T) {
	if c.closed {
		panic("sim: send on closed channel")
	}
	// Direct handoff to a parked receiver.
	if len(c.recvq) > 0 {
		r := c.recvq[0]
		c.recvq = c.recvq[1:]
		deposit(r, v)
		t.k.makeReady(r)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	s := &chanSender[T]{t: t, v: v}
	c.sendq = append(c.sendq, s)
	// Close panics while senders are parked, so waking here always means
	// the value was consumed.
	t.park(stateBlocked, "chan send")
	t.chanOK = false
}

// deposit stores v in the receiver's scratch slot. The value is boxed via a
// pointer so a nil value of an interface-typed T survives the round trip.
func deposit[T any](r *Thread, v T) {
	r.chanVal = &v
	r.chanOK = true
}

// Recv receives a value; ok is false only when the channel is closed and
// drained.
func (c *Chan[T]) Recv(t *Thread) (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// Promote the longest-waiting sender into the freed slot.
		if len(c.sendq) > 0 {
			s := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, s.v)
			s.t.chanOK = true
			t.k.makeReady(s.t)
		}
		return v, true
	}
	// Unbuffered rendezvous: take directly from a parked sender.
	if len(c.sendq) > 0 {
		s := c.sendq[0]
		c.sendq = c.sendq[1:]
		s.t.chanOK = true
		t.k.makeReady(s.t)
		return s.v, true
	}
	if c.closed {
		var zero T
		return zero, false
	}
	c.recvq = append(c.recvq, t)
	t.park(stateBlocked, "chan recv")
	received := t.chanOK
	box := t.chanVal
	t.chanVal = nil
	t.chanOK = false
	if !received {
		var zero T
		return zero, false
	}
	return *(box.(*T)), true
}

// Close marks the channel closed, waking all parked receivers with
// ok=false. Closing with parked senders panics, as the senders' values
// could never be delivered.
func (c *Chan[T]) Close(t *Thread) {
	if c.closed {
		panic("sim: close of closed channel")
	}
	if len(c.sendq) > 0 {
		panic("sim: close of channel with blocked senders")
	}
	c.closed = true
	for _, r := range c.recvq {
		r.chanVal = nil
		r.chanOK = false
		t.k.makeReady(r)
	}
	c.recvq = nil
}
