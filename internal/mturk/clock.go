// Package mturk simulates the Mechanical Turk marketplace Qurk posts
// HITs to. The paper's workload runs against the real MTurk, where one
// HIT takes minutes; here a discrete-event virtual clock provides the
// same asynchrony and minutes-scale latency accounting while experiments
// finish in milliseconds. See DESIGN.md §2 for the substitution argument.
//
// # Locking design
//
// The marketplace keeps its posted HITs in one map under one mutex, and
// the clock keeps its pending events in one heap under another. Each
// lock covers one map or heap operation and is never held across a
// callback: Step pops under the lock and runs the event outside it, and
// the marketplace notifies requesters and observers after releasing its
// lock. The marketplace-wide Stats counters are atomics, so dashboards
// read them without the lock. One lock each suffices: in an engine,
// the quiescence gate (below) keeps the pump from stepping while
// executor goroutines run, so posts and completions rarely contend for
// the same lock.
//
// Determinism guarantee: Step runs the (time, seq) minimum of the
// events pending when it takes the lock, and seq numbers schedules in
// the order they took it, so equal-time events run in schedule order.
// When all scheduling happens from the pump goroutine itself (a
// single-threaded driver), the whole simulation is a pure function of
// its seeds.
//
// When other goroutines feed the clock — the engine's executor runs
// producer goroutines beside its pump — Run waits for them: it steps
// only while the clock's quiesce.Gate is idle, that is, while every
// goroutine holding it is parked. Producers therefore submit all the
// work they can before virtual time moves, and the moment each HIT is
// posted no longer depends on goroutine scheduling.
package mturk

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quiesce"
)

// VirtualTime is simulated time since the start of the run.
type VirtualTime time.Duration

// Minutes reports the virtual time in minutes.
func (v VirtualTime) Minutes() float64 { return time.Duration(v).Minutes() }

// Duration converts to a time.Duration.
func (v VirtualTime) Duration() time.Duration { return time.Duration(v) }

type event struct {
	at  VirtualTime
	seq int64 // tie-break so equal-time events run in schedule order
	fn  func()
}

// eventPool recycles event nodes: the benchmark regime schedules
// millions of events and the per-event allocation was a measurable share
// of marketplace overhead.
var eventPool = sync.Pool{New: func() interface{} { return new(event) }}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is a deterministic discrete-event scheduler. Events run on the
// pump goroutine (Step/Run) in (time, seq) order; Schedule is safe from
// any goroutine.
type Clock struct {
	now    atomic.Int64 // VirtualTime; written by the pump only
	closed atomic.Bool

	mu     sync.Mutex
	seq    int64 // last sequence number issued; mu held
	events eventHeap

	// wake is a one-slot nudge channel for a blocked Run loop; waiting
	// gates the sends so the common Schedule path is allocation- and
	// syscall-free.
	wake    chan struct{}
	waiting atomic.Bool

	pace pace // optional real-time rate (see SetPace)

	gate *quiesce.Gate // Run steps only while no goroutine holds it
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock {
	c := &Clock{wake: make(chan struct{}, 1)}
	c.gate = quiesce.New(func() {
		if c.waiting.CompareAndSwap(true, false) {
			c.wakeAll()
		}
	})
	return c
}

// Gate returns the gate Run waits on: goroutines that feed the clock
// hold it while runnable (see package quiesce), and Run does not step
// until all of them are parked.
func (c *Clock) Gate() *quiesce.Gate { return c.gate }

// Now returns the current virtual time.
func (c *Clock) Now() VirtualTime { return VirtualTime(c.now.Load()) }

// Schedule enqueues fn to run at now+delay. Negative delays run "now".
func (c *Clock) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e := eventPool.Get().(*event)
	e.at = c.Now() + VirtualTime(delay)
	e.fn = fn
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return
	}
	c.seq++
	e.seq = c.seq
	heap.Push(&c.events, e)
	c.mu.Unlock()
	if c.waiting.CompareAndSwap(true, false) {
		c.wakeAll()
	}
}

// wakeAll nudges any blocked Run loop. The one-slot channel makes it
// non-blocking and allocation-free; a stale token only causes a
// harmless spurious loop iteration.
func (c *Clock) wakeAll() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Pending reports the number of scheduled events.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Step runs the earliest pending event in (time, seq) order, advancing
// virtual time to it. It reports false when no events are pending.
func (c *Clock) Step() bool {
	c.mu.Lock()
	if len(c.events) == 0 {
		c.mu.Unlock()
		return false
	}
	e := heap.Pop(&c.events).(*event)
	c.mu.Unlock()
	if at := int64(e.at); at > c.now.Load() {
		c.now.Store(at)
	}
	fn := e.fn
	*e = event{}
	eventPool.Put(e)
	fn() // run outside the lock so events may Schedule more events
	return true
}

// Run pumps events until stop reports true and the event queue is idle.
// It steps only while the gate is idle: a busy goroutine may be about to
// schedule an event earlier than the queue's head. While the gate is
// busy, or the queue is momentarily empty but stop is still false —
// executor goroutines run concurrently with the pump and may be about to
// post new HITs — Run waits for a wakeup (Schedule, or the gate going
// idle), with a short real-time poll as a liveness backstop for the
// window where stop flips without any final event.
//
// Run holds the gate while an event runs, so an event that parks (a
// callback pushing into a full gated queue) hands over like any other
// goroutine.
func (c *Clock) Run(stop func() bool) {
	var poll *time.Timer
	for {
		if c.gate.Busy() {
			if c.closed.Load() {
				return
			}
			c.park(&poll, true)
			continue
		}
		if factor := c.pace.get(); factor > 0 {
			if at, ok := c.peekNext(); ok && at > c.Now() {
				if stop() {
					return
				}
				if !c.paceWait(factor) {
					return
				}
				continue
			}
		}
		c.gate.Hold()
		stepped := c.Step()
		c.gate.Release()
		if stepped {
			continue
		}
		if stop() {
			return
		}
		if c.closed.Load() {
			return
		}
		c.park(&poll, false)
	}
}

// park blocks Run until a wakeup or the poll backstop. forIdle waits for
// the gate to go idle; otherwise it waits for an event to be scheduled
// (or the gate to turn busy, which the caller then waits out).
func (c *Clock) park(poll **time.Timer, forIdle bool) {
	c.waiting.Store(true)
	ready := !c.gate.Busy()
	if !forIdle {
		ready = c.Pending() > 0 || !ready
	}
	if ready {
		c.waiting.Store(false)
		return
	}
	if *poll == nil {
		*poll = time.NewTimer(200 * time.Microsecond)
	} else {
		(*poll).Reset(200 * time.Microsecond)
	}
	select {
	case <-c.wake:
		(*poll).Stop()
	case <-(*poll).C:
	}
	c.waiting.Store(false)
}

// Close wakes Run so it can observe shutdown. Scheduled-but-unrun events
// are dropped.
func (c *Clock) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
	c.wakeAll()
}

// Closed reports whether Close has been called.
func (c *Clock) Closed() bool { return c.closed.Load() }
