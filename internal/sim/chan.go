package sim

import "time"

// Chan is an unbounded, simulator-aware FIFO channel. Senders never
// block; receivers are simulator processes that park until a value
// arrives or their deadline passes, or, on a served channel, one
// handler function (see Serve). Send may be called from event
// callbacks (scheduler context) or from processes.
//
// A steady Send/Recv exchange allocates nothing: both queues reuse their
// storage, and a receiver's waiter record (with its timeout callback)
// is recycled once the receiver has read its result. A long backlog
// grows in fixed segments, so it is never copied.
type Chan[T any] struct {
	s       *Sim
	buf     segQueue[T]
	waiters FIFO[*chanWaiter[T]] // parked receivers, oldest first
	spare   []*chanWaiter[T]     // resolved waiters for reuse
	serve   func(T)              // the handler of a served channel
	closed  bool
	// draining is set while a served channel's drain event is
	// scheduled or running: the state in which a receiving process
	// would be woken or busy rather than parked.
	draining bool
}

// chanWaiter is one parked receiver. It sits in waiters exactly while
// it is unresolved: Send and Close pop it, and its timeout removes it.
type chanWaiter[T any] struct {
	c        *Chan[T]
	p        *Proc
	val      T
	ok       bool
	timeout  Event
	expireFn func() // cached method value of expire
}

// NewChan returns an empty channel bound to s.
func NewChan[T any](s *Sim) *Chan[T] {
	return &Chan[T]{s: s}
}

// Init binds a zero Chan embedded in another value to s, so the
// channel costs no allocation of its own. It must not be copied after
// first use: parked receivers point back at it.
func (c *Chan[T]) Init(s *Sim) { c.s = s }

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.n }

// Send enqueues v, waking the oldest waiting receiver if any. Sending on
// a closed channel is a no-op (the value is dropped), mirroring how a
// network delivers packets to a closed socket.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		return
	}
	if c.waiters.Len() > 0 {
		w := c.waiters.Pop()
		w.val, w.ok = v, true
		w.timeout.Cancel()
		w.p.scheduleWake()
		return
	}
	c.buf.push(v)
	if c.serve != nil && !c.draining {
		c.scheduleDrain()
	}
}

// Serve makes fn the channel's only receiver: every value sent is
// handed to fn in an event callback, in send order. fn takes no *Proc,
// so it cannot block; a server that only receives and answers needs no
// process, and so no coroutine, of its own. Values already buffered are
// handed over as if they had been sent now. Serve must be called at
// most once, and never on a channel a process receives from.
//
// Handlers fire exactly when a process looping on Recv(p, 0), spawned
// where Serve is called, would handle the same values: a Send that
// would wake the parked process schedules one drain event at the same
// point in the event order, and the drain hands fn every value queued
// by the time it runs, as the woken process empties the buffer before
// it parks again. The process's spawn event is the only event missing.
// TryRecv and Drain still remove buffered values, which fn then never
// sees.
func (c *Chan[T]) Serve(fn func(T)) {
	if c.serve != nil || c.waiters.Len() > 0 {
		panic("sim: Serve on a channel that already has a receiver")
	}
	c.serve = fn
	if c.buf.n > 0 {
		c.scheduleDrain()
	}
}

// chanDrain is a served channel in its role as the Handler of its
// drain event, so scheduling the drain allocates no closure.
type chanDrain[T any] Chan[T]

func (c *Chan[T]) scheduleDrain() {
	c.draining = true
	c.s.AtHandler(c.s.now, (*chanDrain[T])(c))
}

// Fire hands the handler every buffered value, including those sent
// while it runs.
func (d *chanDrain[T]) Fire() {
	c := (*Chan[T])(d)
	for c.buf.n > 0 {
		c.serve(c.buf.pop())
	}
	c.draining = false
}

// Close marks the channel closed, waking all waiting receivers with
// ok=false. Buffered values remain receivable. An idle served channel
// schedules one more drain event, where its process would have been
// woken to see the close.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.serve != nil && !c.draining {
		c.scheduleDrain()
	}
	for c.waiters.Len() > 0 {
		w := c.waiters.Pop()
		w.timeout.Cancel()
		w.p.scheduleWake()
	}
}

// Recv dequeues the next value for process p. timeout <= 0 means wait
// forever. ok is false if the deadline passed (or the channel was closed)
// before a value arrived.
func (c *Chan[T]) Recv(p *Proc, timeout time.Duration) (v T, ok bool) {
	if c.buf.n > 0 {
		return c.buf.pop(), true
	}
	if c.closed {
		return v, false
	}
	var w *chanWaiter[T]
	if n := len(c.spare); n > 0 {
		w = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		w = &chanWaiter[T]{c: c}
		w.expireFn = w.expire
	}
	w.p = p
	if timeout > 0 {
		w.timeout = c.s.After(timeout, w.expireFn)
	}
	c.waiters.Push(w)
	p.park()
	v, ok = w.val, w.ok
	*w = chanWaiter[T]{c: c, expireFn: w.expireFn}
	c.spare = append(c.spare, w)
	return v, ok
}

// expire resolves a receiver whose deadline passed: it leaves the
// waiter queue at once, so a channel that never receives again does
// not accumulate dead waiters.
func (w *chanWaiter[T]) expire() {
	q := &w.c.waiters
	for i := q.head; i < len(q.items); i++ {
		if q.items[i] == w {
			q.delete(i)
			break
		}
	}
	w.p.scheduleWake()
}

// TryRecv dequeues a value without blocking.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.buf.n == 0 {
		return v, false
	}
	return c.buf.pop(), true
}

// Drain discards all buffered values and returns how many were dropped.
func (c *Chan[T]) Drain() int {
	n := c.buf.n
	c.buf.reset()
	return n
}

// segLen is the number of values in one segQueue segment.
const segLen = 64

// segment is one fixed-size block of a segQueue.
type segment[T any] struct {
	vals [segLen]T
	next *segment[T]
}

// segQueue is a FIFO of linked fixed-size segments. Unlike a slice
// that append grows, a long backlog never copies the values it already
// holds, and a drained segment is kept as a spare for the next one.
//
// A value pushed onto an empty queue is held inline, outside the
// segments, so a queue that never holds more than one value at a time
// (a served socket, a one-shot result channel) allocates no segment.
// The inline value is always the oldest: it is filled only when the
// queue is empty, and popped first.
type segQueue[T any] struct {
	first      T
	inline     bool        // first holds the oldest value
	head, tail *segment[T] // nil while no segment was ever needed
	hi, ti     int         // next read index in head, next write index in tail
	n          int
	spare      *segment[T]
}

func (q *segQueue[T]) newSegment() *segment[T] {
	if sg := q.spare; sg != nil {
		q.spare = nil
		return sg
	}
	return new(segment[T])
}

func (q *segQueue[T]) push(v T) {
	if q.n == 0 {
		q.first, q.inline, q.n = v, true, 1
		return
	}
	switch {
	case q.tail == nil:
		q.head = q.newSegment()
		q.tail = q.head
	case q.ti == segLen:
		sg := q.newSegment()
		q.tail.next = sg
		q.tail, q.ti = sg, 0
	}
	q.tail.vals[q.ti] = v
	q.ti++
	q.n++
}

// pop removes and returns the oldest value; the queue must be non-empty.
func (q *segQueue[T]) pop() T {
	var zero T
	if q.inline {
		v := q.first
		q.first, q.inline = zero, false
		q.n--
		return v
	}
	sg := q.head
	v := sg.vals[q.hi]
	sg.vals[q.hi] = zero
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		// Empty: head == tail, and both indices restart at its front.
		q.hi, q.ti = 0, 0
	case q.hi == segLen:
		q.head, q.hi = sg.next, 0
		sg.next = nil
		q.spare = sg
	}
	return v
}

// reset empties the queue, keeping its head segment as the spare. Only
// the head's live slots hold values (pop clears each slot it reads), so
// only they are cleared: draining one value costs one slot, not a
// segment.
func (q *segQueue[T]) reset() {
	var zero T
	q.first, q.inline = zero, false
	if sg := q.head; sg != nil {
		if sg == q.tail {
			clear(sg.vals[q.hi:q.ti])
		} else {
			clear(sg.vals[q.hi:])
		}
		sg.next = nil
		q.spare = sg
	}
	q.head, q.tail, q.hi, q.ti, q.n = nil, nil, 0, 0, 0
}

// FIFO is a slice-backed queue that keeps its storage: pops advance a
// head index instead of re-slicing the front away, and a push into a
// full backing array first slides the live items down when at least
// half of it is dead, so a queue whose length stays bounded stops
// allocating, even one that never drains (a standing backlog): the
// array grows only while more than half of it is live, so it stays
// below four times the longest backlog. It holds a Chan's waiters
// (where expire needs delete by index) and the packet queues of links
// and gateway forwarding engines. The zero FIFO is empty and ready to
// use.
type FIFO[T any] struct {
	items []T // live items are items[head:]
	head  int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && q.head >= q.Len() {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// At returns the item i places behind the oldest (0 <= i < Len).
func (q *FIFO[T]) At(i int) T { return q.items[q.head+i] }

// Pop removes and returns the oldest item; the queue must be non-empty.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// delete removes the item at absolute index i (head <= i < len(items)).
func (q *FIFO[T]) delete(i int) {
	n := len(q.items) - 1
	copy(q.items[i:], q.items[i+1:])
	var zero T
	q.items[n] = zero
	q.items = q.items[:n]
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
}
