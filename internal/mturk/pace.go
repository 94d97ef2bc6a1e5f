package mturk

import (
	"sync"
	"time"
)

// pace holds the optional real-time rate of a clock. Zero means "run as
// fast as possible" (the default for tests and benchmarks).
type pace struct {
	mu     sync.Mutex
	factor float64 // real seconds per virtual second
}

func (p *pace) get() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.factor
}

// SetPace makes Run sleep factor real seconds per virtual second before
// executing each event (0 restores full speed). The live demo dashboard
// uses this so HITs stay open long enough for the audience to answer.
func (c *Clock) SetPace(factor float64) {
	c.pace.mu.Lock()
	c.pace.factor = factor
	c.pace.mu.Unlock()
	c.wakeAll()
}

// peekNext reports the earliest pending event time.
func (c *Clock) peekNext() (VirtualTime, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].at, true
}

// paceWait sleeps toward the next event at the configured rate, in
// small chunks so newly scheduled (earlier) events and Close wake it.
// While sleeping, virtual time advances smoothly so dashboards show
// motion between events. It reports false when the clock closed.
func (c *Clock) paceWait(factor float64) bool {
	at, ok := c.peekNext()
	if !ok {
		return true
	}
	delta := at - c.Now()
	if delta <= 0 {
		return true
	}
	sleep := time.Duration(float64(delta) * factor)
	if sleep <= 0 {
		// The gap is smaller than the pace can resolve (a zero-length
		// sleep fires immediately and advances nothing): jump straight
		// to the event instead of spinning on empty timers.
		if now := c.Now(); at > now {
			c.now.Store(int64(at))
		}
		return true
	}
	const maxChunk = 10 * time.Millisecond
	if sleep > maxChunk {
		sleep = maxChunk
	}
	if c.closed.Load() {
		return false
	}
	c.waiting.Store(true)
	select {
	case <-c.wake:
	case <-time.After(sleep):
		adv := VirtualTime(float64(sleep) / factor)
		now := c.Now()
		if now+adv > at {
			adv = at - now
		}
		if adv > 0 {
			c.now.Store(int64(now + adv))
		}
	}
	c.waiting.Store(false)
	return true
}
