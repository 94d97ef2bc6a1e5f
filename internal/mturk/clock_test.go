package mturk

import (
	"sync"
	"testing"
	"time"
)

// TestClockManyEqualTimeEventsFIFO schedules enough same-time events
// that the heap reorders them many times over and asserts they run in
// exactly schedule order: the seq tie-break, not heap placement, orders
// equal times.
func TestClockManyEqualTimeEventsFIFO(t *testing.T) {
	c := NewClock()
	const n = 1000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		c.Schedule(time.Minute, func() { got = append(got, i) })
	}
	for c.Step() {
	}
	if len(got) != n {
		t.Fatalf("ran %d of %d events", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran at position %d (equal-time events out of schedule order)", v, i)
		}
	}
}

// TestClockInterleavedDelaysOrdered mixes delays so consecutive seqs
// land at different times and asserts time order wins over schedule
// order.
func TestClockInterleavedDelaysOrdered(t *testing.T) {
	c := NewClock()
	var got []time.Duration
	delays := []time.Duration{9, 1, 8, 2, 7, 3, 6, 4, 5, 0}
	for _, d := range delays {
		d := d
		c.Schedule(d*time.Minute, func() { got = append(got, d) })
	}
	for c.Step() {
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("events out of time order: %v", got)
		}
	}
}

// TestClockConcurrentSchedulesDrainInOrder has goroutines schedule at
// once, at mixed and equal delays, while nothing steps. Draining then
// runs every event exactly once, in non-decreasing virtual time, and
// each goroutine's equal-time events in that goroutine's schedule
// order. Run under -race this is the clock lock's data-race probe.
func TestClockConcurrentSchedulesDrainInOrder(t *testing.T) {
	const goroutines, perG, delays = 8, 200, 5
	c := NewClock()
	type ran struct {
		g, i int
		at   VirtualTime
	}
	var order []ran // appended by events, which Step runs on this goroutine
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				// i*3 mod 5 walks every delay in a mixed order, and each
				// goroutine repeats each delay perG/delays times.
				delay := time.Duration(i*3%delays) * time.Minute
				c.Schedule(delay, func() { order = append(order, ran{g, i, c.Now()}) })
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := c.Pending(); n != goroutines*perG {
		t.Fatalf("Pending = %d before draining, want %d", n, goroutines*perG)
	}
	for c.Step() {
	}
	if len(order) != goroutines*perG {
		t.Fatalf("ran %d events, want %d", len(order), goroutines*perG)
	}
	var seen [goroutines][perG]bool
	var last [goroutines][delays]int // last index run per goroutine and delay, +1
	for k, r := range order {
		if seen[r.g][r.i] {
			t.Fatalf("goroutine %d's event %d ran twice", r.g, r.i)
		}
		seen[r.g][r.i] = true
		if want := VirtualTime(time.Duration(r.i*3%delays) * time.Minute); r.at != want {
			t.Fatalf("goroutine %d's event %d ran at %v, want %v", r.g, r.i, r.at.Duration(), want.Duration())
		}
		if k > 0 && r.at < order[k-1].at {
			t.Fatalf("event %d ran at %v after an event at %v", k, r.at.Duration(), order[k-1].at.Duration())
		}
		d := r.i * 3 % delays
		if r.i+1 <= last[r.g][d] {
			t.Fatalf("goroutine %d's event %d ran after its event %d at the same time", r.g, r.i, last[r.g][d]-1)
		}
		last[r.g][d] = r.i + 1
	}
}
