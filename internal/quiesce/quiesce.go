// Package quiesce lets a discrete-event clock wait for the goroutines
// that feed it. The engine's executor runs producer goroutines
// concurrently with the clock pump; if the pump advanced virtual time
// while a producer was still submitting work, the virtual moment each
// HIT is posted — and so every latency, batch boundary and crowd draw —
// would depend on goroutine scheduling. A Gate counts the goroutines
// that are runnable (busy); the pump steps only when that count is
// zero, i.e. when every engine goroutine is parked waiting on the crowd
// or on another operator.
//
// The count stays exact across wakeups by handing the token over: a
// goroutine releases its hold when it parks on one of this package's
// primitives (or a gated queue), and whoever wakes it holds on its
// behalf before waking it, so there is no window in which a woken
// goroutine is runnable but uncounted.
//
// A nil *Gate is valid and disables all accounting, so primitives built
// on a nil gate behave exactly like their sync counterparts.
package quiesce

import (
	"sync"
	"sync/atomic"
)

// Gate counts busy goroutines. The zero value is not usable; use New.
type Gate struct {
	busy   atomic.Int64
	onIdle func() // called each time the count drops to zero
}

// New returns a gate that calls onIdle whenever the busy count drops to
// zero (the clock uses it to wake a pump waiting for quiescence).
func New(onIdle func()) *Gate { return &Gate{onIdle: onIdle} }

// Hold marks one more goroutine busy.
func (g *Gate) Hold() {
	if g != nil {
		g.busy.Add(1)
	}
}

// Release marks one busy goroutine parked or finished.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	n := g.busy.Add(-1)
	if n < 0 {
		panic("quiesce: Release without Hold")
	}
	if n == 0 && g.onIdle != nil {
		g.onIdle()
	}
}

// Busy reports whether any goroutine holds the gate.
func (g *Gate) Busy() bool { return g != nil && g.busy.Load() > 0 }

// Go runs f on a new goroutine that counts as busy from before it starts
// until f returns.
func (g *Gate) Go(f func()) {
	g.Hold()
	go func() {
		defer g.Release()
		f()
	}()
}

// WaitGroup is a sync.WaitGroup whose Wait parks on the gate: the waiter
// releases its hold while blocked, and the Done that drops the counter
// to zero holds on each waiter's behalf before waking it.
type WaitGroup struct {
	Gate *Gate

	mu      sync.Mutex
	n       int
	waiters int
	ch      chan struct{} // closed when n reaches zero with waiters
}

// Add adds delta to the counter; reaching zero wakes every waiter.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n += delta
	if w.n < 0 {
		panic("quiesce: negative WaitGroup counter")
	}
	if w.n == 0 && w.waiters > 0 {
		for ; w.waiters > 0; w.waiters-- {
			w.Gate.Hold()
		}
		close(w.ch)
		w.ch = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	ch := w.ch
	w.waiters++
	w.mu.Unlock()
	w.Gate.Release()
	<-ch
}

// Sem is a counting semaphore whose Acquire parks on the gate. A Release
// with waiters hands its slot straight to the oldest one, holding on
// its behalf.
type Sem struct {
	gate    *Gate
	mu      sync.Mutex
	free    int
	waiters []chan struct{}
}

// NewSem returns a semaphore with n slots.
func NewSem(g *Gate, n int) *Sem { return &Sem{gate: g, free: n} }

// Acquire takes a slot, blocking until one is free.
func (s *Sem) Acquire() {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	s.waiters = append(s.waiters, ch)
	s.mu.Unlock()
	s.gate.Release()
	<-ch
}

// Release frees a slot.
func (s *Sem) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 {
		s.free++
		return
	}
	ch := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.gate.Hold()
	close(ch)
}
