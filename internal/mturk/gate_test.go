package mturk

import (
	"sync/atomic"
	"testing"
	"time"
)

// Run must not step while a goroutine holds the clock's gate: a busy
// producer could still schedule an event earlier than the queue's head.
func TestRunWaitsForIdleGate(t *testing.T) {
	c := NewClock()
	var fired atomic.Bool
	c.Schedule(time.Minute, func() { fired.Store(true) })
	c.Gate().Hold()
	stopped := make(chan struct{})
	go func() {
		c.Run(fired.Load)
		close(stopped)
	}()
	time.Sleep(5 * time.Millisecond)
	if fired.Load() || c.Now() != 0 {
		t.Fatalf("clock stepped to %v while the gate was held", c.Now())
	}
	// An event scheduled by the busy goroutine still runs first.
	var order []string
	c.Schedule(time.Second, func() { order = append(order, "early") })
	c.Gate().Release()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("clock never resumed after the gate went idle")
	}
	if len(order) != 1 || c.Now() != VirtualTime(time.Minute) {
		t.Fatalf("order=%v now=%v", order, c.Now())
	}
}
