package mturk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClockManyEqualTimeEventsFIFO schedules enough same-time events to
// span every shard queue several times over and asserts the merged
// execution order is exactly schedule order — the (time, seq) merge the
// package comment guarantees.
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
			t.Fatalf("event %d ran at position %d (cross-shard merge broke FIFO)", v, i)
		}
	}
}

// TestClockInterleavedDelaysOrdered mixes delays so consecutive seqs
// land at different times on different shards and asserts global time
// order wins over shard placement.
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

// TestAutoDisposeDropsCompletedHITs checks the production retention
// mode: completed HITs leave the shard maps (Status/AllHITs no longer
// see them), the observer receives each final status exactly once, and
// the atomic counters still account for everything.
func TestAutoDisposeDropsCompletedHITs(t *testing.T) {
	clock := NewClock()
	m := NewMarketplace(clock, &fakePool{})
	var mu sync.Mutex
	var finals []HITStatus
	m.SetAutoDispose(true, func(hs HITStatus) {
		mu.Lock()
		finals = append(finals, hs)
		mu.Unlock()
	})
	var done atomic.Int64
	const hits = 5
	ids := make([]string, 0, hits)
	for i := 0; i < hits; i++ {
		h := filterHIT(m.NewHITID(), 2)
		ids = append(ids, h.ID)
		if err := m.Post(h, func(AssignmentResult) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, clock, func() bool { return done.Load() == 2*hits })
	mu.Lock()
	defer mu.Unlock()
	if len(finals) != hits {
		t.Fatalf("observer saw %d disposals, want %d", len(finals), hits)
	}
	for _, hs := range finals {
		if hs.Open() || hs.Completed != 2 {
			t.Fatalf("disposed status not final: %+v", hs)
		}
	}
	for _, id := range ids {
		if _, ok := m.Status(id); ok {
			t.Fatalf("HIT %s still visible after auto-dispose", id)
		}
	}
	if got := len(m.AllHITs()); got != 0 {
		t.Fatalf("AllHITs = %d entries after auto-dispose", got)
	}
	st := m.Stats()
	if st.HITsPosted != hits || st.AssignmentsCompleted != 2*hits {
		t.Fatalf("stats lost history: %+v", st)
	}
}

// TestDisposeRemovesHIT checks manual disposal (MTurk DeleteHIT).
func TestDisposeRemovesHIT(t *testing.T) {
	clock := NewClock()
	m := NewMarketplace(clock, &fakePool{})
	var done atomic.Int64
	h := filterHIT(m.NewHITID(), 1)
	if err := m.Post(h, func(AssignmentResult) { done.Add(1) }); err != nil {
		t.Fatal(err)
	}
	pump(t, clock, func() bool { return done.Load() == 1 })
	hs, ok := m.Dispose(h.ID)
	if !ok || hs.Completed != 1 {
		t.Fatalf("Dispose = %+v, %v", hs, ok)
	}
	if _, ok := m.Dispose(h.ID); ok {
		t.Fatal("second Dispose succeeded")
	}
	if _, ok := m.Status(h.ID); ok {
		t.Fatal("Status sees disposed HIT")
	}
}

// TestConcurrentPostsAcrossShards hammers Post from many goroutines
// while the pump completes assignments — the contention pattern the
// sharding exists for. Run under -race this doubles as the marketplace's
// data-race probe.
func TestConcurrentPostsAcrossShards(t *testing.T) {
	clock := NewClock()
	m := NewMarketplace(clock, &fakePool{})
	const goroutines = 8
	const perG = 200
	var done atomic.Int64
	stopped := make(chan struct{})
	go func() {
		clock.Run(func() bool { return done.Load() == goroutines*perG })
		close(stopped)
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h := filterHIT(m.NewHITID(), 1)
				if err := m.Post(h, func(AssignmentResult) { done.Add(1) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("pump did not finish")
	}
	st := m.Stats()
	if st.HITsPosted != goroutines*perG || st.AssignmentsCompleted != goroutines*perG {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(m.AllHITs()); got != goroutines*perG {
		t.Fatalf("AllHITs = %d, want %d", got, goroutines*perG)
	}
}

// TestHITIDFormatStable pins the ID format the dashboard and demos show.
func TestHITIDFormatStable(t *testing.T) {
	m := NewMarketplace(NewClock(), &fakePool{})
	if id := m.NewHITID(); id != "HIT-000001" {
		t.Fatalf("first id = %q", id)
	}
	for i := 0; i < 999997; i++ {
		m.NewHITID()
	}
	if id := m.NewHITID(); id != "HIT-999999" {
		t.Fatalf("id 999999 = %q", id)
	}
	if id := m.NewHITID(); id != "HIT-1000000" {
		t.Fatalf("overflow id = %q", id)
	}
	if want := fmt.Sprintf("HIT-%06d", 1000001); m.NewHITID() != want {
		t.Fatalf("fmt parity broken at %s", want)
	}
}

// TestPaddedIDAllocatesOnce: an ID formats into a stack buffer, so it
// costs its string alone, and prints what "%06d" prints.
func TestPaddedIDAllocatesOnce(t *testing.T) {
	var id string
	if n := testing.AllocsPerRun(100, func() { id = PaddedID("HIT-", 4242) }); n != 1 {
		t.Fatalf("PaddedID allocates %.1f times, want 1", n)
	}
	for _, n := range []int64{0, 7, 4242, 999999, 1234567} {
		if got, want := PaddedID("t", n), fmt.Sprintf("t%06d", n); got != want {
			t.Errorf("PaddedID(%d) = %q, want %q", n, got, want)
		}
	}
	if id != "HIT-004242" {
		t.Fatalf("id = %q", id)
	}
}
