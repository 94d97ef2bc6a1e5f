package quiesce

import (
	"testing"
	"time"
)

// waitIdle polls until the gate goes idle (the parked side of a
// hand-over happens on another goroutine).
func waitIdle(t *testing.T, g *Gate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Busy() {
		if time.Now().After(deadline) {
			t.Fatal("gate never went idle")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestGoHoldsUntilReturn(t *testing.T) {
	idle := make(chan struct{}, 1)
	g := New(func() { idle <- struct{}{} })
	release := make(chan struct{})
	g.Go(func() { <-release })
	if !g.Busy() {
		t.Fatal("gate idle while the goroutine runs")
	}
	close(release)
	<-idle
	if g.Busy() {
		t.Fatal("gate busy after the goroutine returned")
	}
}

// The Done that empties a WaitGroup must hold the gate for the waiter
// before waking it: the gate may never read idle while the waiter is
// runnable.
func TestWaitGroupHandsOverHold(t *testing.T) {
	g := New(nil)
	wg := WaitGroup{Gate: g}
	wg.Add(1)
	resumed := make(chan struct{})
	finish := make(chan struct{})
	g.Go(func() {
		wg.Wait()
		close(resumed)
		<-finish
	})
	waitIdle(t, g) // parked in Wait
	wg.Done()
	if !g.Busy() {
		t.Fatal("Done woke the waiter without holding the gate for it")
	}
	<-resumed
	if !g.Busy() {
		t.Fatal("resumed waiter is not counted busy")
	}
	close(finish)
	waitIdle(t, g)
}

func TestSemHandsSlotAndHold(t *testing.T) {
	g := New(nil)
	s := NewSem(g, 1)
	g.Hold()
	s.Acquire() // free slot: no parking
	acquired, finish := make(chan struct{}), make(chan struct{})
	g.Go(func() {
		s.Acquire()
		close(acquired)
		<-finish
	})
	g.Release()
	waitIdle(t, g) // second acquirer parked, first holder released
	s.Release()
	if !g.Busy() {
		t.Fatal("Release handed the slot over without holding the gate")
	}
	<-acquired
	close(finish)
	waitIdle(t, g)
	s.Release()
	s.Acquire() // the handed-over slot came back: no parking
}

func TestNilGateIsNoop(t *testing.T) {
	var g *Gate
	g.Hold()
	g.Release()
	if g.Busy() {
		t.Fatal("nil gate reports busy")
	}
	wg := WaitGroup{}
	wg.Add(1)
	done := make(chan struct{})
	g.Go(func() {
		wg.Done()
		close(done)
	})
	<-done
	wg.Wait()
}
