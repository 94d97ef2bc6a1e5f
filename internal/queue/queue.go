// Package queue provides the bounded, closable tuple queues that Qurk's
// operators use to communicate asynchronously, in the style of the
// Volcano exchange operator the paper cites: each operator consumes from
// input queues and pushes to its parent's queue, so slow HITs in one part
// of the plan never block unrelated progress.
package queue

import (
	"errors"
	"sync"

	"repro/internal/quiesce"
	"repro/internal/relation"
)

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("queue: closed")

// Queue is a bounded FIFO of tuples, safe for many producers and many
// consumers. Close signals end-of-stream: pending items remain poppable,
// Pop returns ok=false once drained.
//
// The ring grows with the backlog rather than the capacity: a new queue
// holds no ring, Push doubles it (up to the capacity) when it is full,
// and a closed queue drops it once drained, so a finished query's
// queues cost only their header.
//
// A queue built with NewGated parks its blocked callers on a
// quiesce.Gate: a blocked Push or Pop releases its hold, and the call
// that wakes it holds on its behalf. The sleeper counts make that
// hand-over exact — a waker decrements them as it signals, so each
// wakeup carries exactly one hold.
type Queue struct {
	mu        sync.Mutex
	notFull   *sync.Cond
	notEmpty  *sync.Cond
	buf       []relation.Tuple // ring; len(buf) <= capacity
	capacity  int
	head      int
	count     int
	closed    bool
	gate      *quiesce.Gate
	sleepPush int // Push callers waiting on notFull and not yet signaled
	sleepPop  int // Pop callers waiting on notEmpty and not yet signaled

	// hwm tracks the high-water mark for dashboard reporting.
	hwm    int
	pushed int64
	popped int64
}

// New creates a queue with the given capacity (minimum 1).
func New(capacity int) *Queue { return NewGated(capacity, nil) }

// NewGated creates a queue whose blocked callers park on g (nil: plain
// blocking, like New).
func NewGated(capacity int, g *quiesce.Gate) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{capacity: capacity, gate: g}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// Push enqueues t, blocking while the queue is full. It returns ErrClosed
// if the queue is (or becomes, while blocked) closed.
func (q *Queue) Push(t relation.Tuple) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == q.capacity && !q.closed {
		q.sleepPush++
		q.gate.Release()
		q.notFull.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	q.appendLocked(t)
	return nil
}

// TryPush enqueues without blocking; it reports false when full or closed.
func (q *Queue) TryPush(t relation.Tuple) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.count == q.capacity {
		return false
	}
	q.appendLocked(t)
	return true
}

// minRing is the first ring size a queue allocates.
const minRing = 4

// appendLocked adds t at the tail, growing the ring first when it is
// full, and wakes one blocked Pop. The caller has checked that the
// queue is open and below capacity.
func (q *Queue) appendLocked(t relation.Tuple) {
	if q.count == len(q.buf) {
		ring := make([]relation.Tuple, min(max(2*len(q.buf), minRing), q.capacity))
		n := copy(ring, q.buf[q.head:])
		copy(ring[n:], q.buf[:q.head])
		q.buf, q.head = ring, 0
	}
	q.buf[(q.head+q.count)%len(q.buf)] = t
	q.count++
	q.pushed++
	if q.count > q.hwm {
		q.hwm = q.count
	}
	q.wakePopLocked()
}

// Pop dequeues the oldest tuple, blocking while the queue is empty and
// open. ok is false only when the queue is closed and drained.
func (q *Queue) Pop() (t relation.Tuple, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.sleepPop++
		q.gate.Release()
		q.notEmpty.Wait()
	}
	if q.count == 0 {
		return relation.Tuple{}, false
	}
	return q.takeLocked(), true
}

// TryPop dequeues without blocking. done reports the closed-and-drained
// state; ok reports whether a tuple was returned.
func (q *Queue) TryPop() (t relation.Tuple, ok, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return relation.Tuple{}, false, q.closed
	}
	return q.takeLocked(), true, false
}

// takeLocked removes the head tuple and wakes one blocked Push. The
// caller has checked that the queue is not empty. A closed queue
// drops its ring with its last tuple.
func (q *Queue) takeLocked() relation.Tuple {
	t := q.buf[q.head]
	q.buf[q.head] = relation.Tuple{}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.popped++
	q.dropDrainedLocked()
	q.wakePushLocked()
	return t
}

// dropDrainedLocked releases the ring of a closed, drained queue.
func (q *Queue) dropDrainedLocked() {
	if q.closed && q.count == 0 {
		q.buf, q.head = nil, 0
	}
}

// Close marks end-of-stream and wakes all waiters. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.dropDrainedLocked()
	for ; q.sleepPush > 0; q.sleepPush-- {
		q.gate.Hold()
	}
	for ; q.sleepPop > 0; q.sleepPop-- {
		q.gate.Hold()
	}
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// wakePopLocked wakes one blocked Pop, holding the gate on its behalf.
func (q *Queue) wakePopLocked() {
	if q.sleepPop > 0 {
		q.sleepPop--
		q.gate.Hold()
		q.notEmpty.Signal()
	}
}

// wakePushLocked wakes one blocked Push, holding the gate on its behalf.
func (q *Queue) wakePushLocked() {
	if q.sleepPush > 0 {
		q.sleepPush--
		q.gate.Hold()
		q.notFull.Signal()
	}
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Len returns the number of buffered tuples.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Stats reports lifetime counters for the dashboard.
func (q *Queue) Stats() (pushed, popped int64, highWater int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed, q.popped, q.hwm
}

// Drain pops every remaining tuple until closed-and-empty, returning them.
// It blocks until the producer closes the queue.
func (q *Queue) Drain() []relation.Tuple {
	var out []relation.Tuple
	for {
		t, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}
