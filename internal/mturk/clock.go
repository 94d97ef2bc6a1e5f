// Package mturk simulates the Mechanical Turk marketplace Qurk posts
// HITs to. The paper's workload runs against the real MTurk, where one
// HIT takes minutes; here a discrete-event virtual clock provides the
// same asynchrony and minutes-scale latency accounting while experiments
// finish in milliseconds. See DESIGN.md §2 for the substitution argument.
//
// # Sharding design
//
// Both the marketplace and the clock are lock-striped so that the
// thousands-of-async-HITs regime the paper targets scales with cores
// instead of serializing behind one mutex:
//
//   - Marketplace state is partitioned across DefaultMarketShards
//     shards keyed by an FNV-1a hash of the HIT ID; Post, complete,
//     Status and SubmitExternal touch only one shard's lock, and the
//     marketplace-wide Stats counters are atomics, so concurrent
//     requesters on different shards never contend.
//   - The clock keeps one logical timeline but spreads pending events
//     over per-shard queues (round-robin by sequence number). Schedule
//     takes only one shard lock; Step merges the queues by (time, seq),
//     which is a deterministic total order because seq comes from one
//     atomic counter. The shard count therefore never changes execution
//     order: identical schedules replay identically at any shard count.
//
// Determinism guarantee: every event whose Schedule completed before a
// Step begins runs in strictly increasing (time, seq) order; a Schedule
// overlapping a Step races it exactly as it would have raced the old
// single-mutex pop (see Step). When all scheduling happens from the
// pump goroutine itself (the single-threaded harness pattern — see
// internal/load), no such races exist and the whole simulation is a
// pure function of its seeds.
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
	"runtime"
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

// clockShard is one independently locked slice of the pending-event set.
// The padding keeps shards on separate cache lines.
type clockShard struct {
	mu     sync.Mutex
	events eventHeap
	_      [40]byte
}

// MaxClockShards caps the number of event queues a clock stripes
// schedules across. The effective count is min(MaxClockShards,
// GOMAXPROCS): striping only pays when schedulers actually run in
// parallel, and because Step merges shards by the global (time, seq)
// order, the shard count never affects execution order.
const MaxClockShards = 8

func clockShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n > MaxClockShards {
		n = MaxClockShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Clock is a deterministic discrete-event scheduler. Events run on the
// pump goroutine (Step/Run) in (time, seq) order; Schedule is safe from
// any goroutine and takes only one shard lock.
type Clock struct {
	now    atomic.Int64 // VirtualTime; written by the pump only
	seq    atomic.Int64
	closed atomic.Bool
	// schedVersion counts completed insertions; Step rescans when it
	// changes mid-scan so a concurrently scheduled earlier event on an
	// already-visited shard is not passed over.
	schedVersion atomic.Int64

	shards []clockShard

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
	c := &Clock{
		shards: make([]clockShard, clockShardCount()),
		wake:   make(chan struct{}, 1),
	}
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
	seq := c.seq.Add(1)
	e := eventPool.Get().(*event)
	e.at = c.Now() + VirtualTime(delay)
	e.seq = seq
	e.fn = fn
	sh := &c.shards[uint64(seq)%uint64(len(c.shards))]
	sh.mu.Lock()
	if c.closed.Load() {
		sh.mu.Unlock()
		return
	}
	heap.Push(&sh.events, e)
	sh.mu.Unlock()
	c.schedVersion.Add(1)
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
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.events)
		sh.mu.Unlock()
	}
	return n
}

// Step runs the earliest event — the (time, seq) minimum across every
// shard queue — advancing virtual time to it. It reports false when no
// events are pending.
//
// Every event whose Schedule call completed before Step began is merged
// in strict (time, seq) order: the scan retries whenever an insertion
// lands mid-scan (schedVersion) or the chosen shard's head changes. A
// Schedule still racing Step after several retries may see its event
// deferred to the next Step, where it runs at the already-advanced
// virtual now — observably the same as having scheduled just after the
// popped event fired, which is the only honest ordering for a schedule
// that overlaps the pop.
func (c *Clock) Step() bool {
	const maxRescans = 4
	for attempt := 0; ; attempt++ {
		version := c.schedVersion.Load()
		best := -1
		var bestAt VirtualTime
		var bestSeq int64
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			if len(sh.events) > 0 {
				e := sh.events[0]
				if best < 0 || e.at < bestAt || (e.at == bestAt && e.seq < bestSeq) {
					best, bestAt, bestSeq = i, e.at, e.seq
				}
			}
			sh.mu.Unlock()
		}
		if best < 0 {
			if c.schedVersion.Load() != version {
				continue // an insert raced the empty scan; look again
			}
			return false
		}
		if attempt < maxRescans && c.schedVersion.Load() != version {
			continue // something landed mid-scan; re-establish the minimum
		}
		sh := &c.shards[best]
		sh.mu.Lock()
		if len(sh.events) == 0 || sh.events[0].seq != bestSeq {
			// An earlier event arrived on this shard between the scan
			// and the pop; rescan so the merge order stays correct.
			sh.mu.Unlock()
			continue
		}
		e := heap.Pop(&sh.events).(*event)
		sh.mu.Unlock()
		if at := int64(e.at); at > c.now.Load() {
			c.now.Store(at)
		}
		fn := e.fn
		*e = event{}
		eventPool.Put(e)
		fn() // run outside all locks so events may Schedule more events
		return true
	}
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
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.events = nil
		sh.mu.Unlock()
	}
	c.wakeAll()
}

// Closed reports whether Close has been called.
func (c *Clock) Closed() bool { return c.closed.Load() }
