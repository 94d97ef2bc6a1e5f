package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/quiesce"
	"repro/internal/relation"
)

var oneCol = relation.MustSchema(relation.Column{Name: "v", Kind: relation.KindInt})

func tup(i int64) relation.Tuple {
	return relation.MustTuple(oneCol, relation.NewInt(i))
}

func TestFIFOOrder(t *testing.T) {
	q := New(4)
	for i := int64(0); i < 4; i++ {
		if err := q.Push(tup(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 4; i++ {
		got, ok := q.Pop()
		if !ok || got.Values[0].Int() != i {
			t.Fatalf("pop %d = %v ok=%v", i, got, ok)
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := New(2)
	for round := int64(0); round < 10; round++ {
		if err := q.Push(tup(round)); err != nil {
			t.Fatal(err)
		}
		got, ok := q.Pop()
		if !ok || got.Values[0].Int() != round {
			t.Fatalf("round %d: %v", round, got)
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	q := New(4)
	_ = q.Push(tup(1))
	q.Close()
	q.Close() // idempotent
	if !q.Closed() {
		t.Fatal("Closed() = false")
	}
	if err := q.Push(tup(2)); err != ErrClosed {
		t.Fatalf("push after close = %v", err)
	}
	// Pending item still poppable.
	if got, ok := q.Pop(); !ok || got.Values[0].Int() != 1 {
		t.Fatalf("pending pop = %v ok=%v", got, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained+closed pop must report !ok")
	}
}

func TestPushBlocksUntilPop(t *testing.T) {
	q := New(1)
	if err := q.Push(tup(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- q.Push(tup(2)) }()
	if got, ok := q.Pop(); !ok || got.Values[0].Int() != 1 {
		t.Fatalf("pop = %v", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, ok := q.Pop(); !ok || got.Values[0].Int() != 2 {
		t.Fatalf("second pop = %v", got)
	}
}

func TestPushBlockedWokenByClose(t *testing.T) {
	q := New(1)
	_ = q.Push(tup(1))
	done := make(chan error)
	go func() { done <- q.Push(tup(2)) }()
	q.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("blocked push after close = %v", err)
	}
}

func TestPopBlockedWokenByClose(t *testing.T) {
	q := New(1)
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	q.Close()
	if ok := <-done; ok {
		t.Fatal("pop on closed empty queue must report !ok")
	}
}

func TestTryPushTryPop(t *testing.T) {
	q := New(1)
	if !q.TryPush(tup(1)) {
		t.Fatal("TryPush on empty failed")
	}
	if q.TryPush(tup(2)) {
		t.Fatal("TryPush on full succeeded")
	}
	got, ok, done := q.TryPop()
	if !ok || done || got.Values[0].Int() != 1 {
		t.Fatalf("TryPop = %v ok=%v done=%v", got, ok, done)
	}
	_, ok, done = q.TryPop()
	if ok || done {
		t.Fatalf("TryPop empty open = ok=%v done=%v", ok, done)
	}
	q.Close()
	_, ok, done = q.TryPop()
	if ok || !done {
		t.Fatalf("TryPop empty closed = ok=%v done=%v", ok, done)
	}
	if q.TryPush(tup(3)) {
		t.Fatal("TryPush after close succeeded")
	}
}

func TestStats(t *testing.T) {
	q := New(8)
	for i := int64(0); i < 5; i++ {
		_ = q.Push(tup(i))
	}
	_, _ = q.Pop()
	pushed, popped, hwm := q.Stats()
	if pushed != 5 || popped != 1 || hwm != 5 {
		t.Fatalf("stats = %d %d %d", pushed, popped, hwm)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestDrain(t *testing.T) {
	q := New(4)
	go func() {
		for i := int64(0); i < 10; i++ {
			_ = q.Push(tup(i))
		}
		q.Close()
	}()
	got := q.Drain()
	if len(got) != 10 {
		t.Fatalf("drain = %d tuples", len(got))
	}
	for i, tu := range got {
		if tu.Values[0].Int() != int64(i) {
			t.Fatalf("drain order broken at %d: %v", i, tu)
		}
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New(3)
	const producers, per = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Push(tup(int64(p*per + i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	seen := make(map[int64]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				tu, ok := q.Pop()
				if !ok {
					return
				}
				mu.Lock()
				seen[tu.Values[0].Int()] = true
				mu.Unlock()
			}
		}()
	}
	cg.Wait()
	if len(seen) != producers*per {
		t.Fatalf("saw %d distinct tuples, want %d", len(seen), producers*per)
	}
}

// Property: after any sequence of pushes then pops, FIFO order holds and
// counts balance.
func TestFIFOProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		q := New(4)
		var want []int64
		go func() {
			for i, s := range sizes {
				_ = s
				_ = q.Push(tup(int64(i)))
			}
			q.Close()
		}()
		for i := range sizes {
			want = append(want, int64(i))
		}
		got := q.Drain()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Values[0].Int() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewMinimumCapacity(t *testing.T) {
	q := New(0)
	if !q.TryPush(tup(1)) {
		t.Fatal("capacity must be at least 1")
	}
}

// A Push that wakes a parked Pop holds the gate for it, so the gate
// never reads idle while the consumer is runnable.
func TestGatedQueueHandsOverHold(t *testing.T) {
	g := quiesce.New(nil)
	q := NewGated(1, g)
	got := make(chan int64)
	g.Go(func() {
		t, _ := q.Pop()
		got <- t.Values[0].Int()
	})
	for g.Busy() { // consumer parks on the empty queue
		runtime.Gosched()
	}
	if err := q.Push(tup(7)); err != nil {
		t.Fatal(err)
	}
	if !g.Busy() {
		t.Fatal("Push woke the consumer without holding the gate for it")
	}
	if v := <-got; v != 7 {
		t.Fatalf("popped %d", v)
	}
	for g.Busy() {
		runtime.Gosched()
	}
	q.Close()
}

// ringLen reports the current ring size.
func ringLen(q *Queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// The ring starts empty and doubles with the backlog; FIFO order holds
// across every growth, including growth while the ring has wrapped.
func TestRingGrowsInFIFOOrder(t *testing.T) {
	q := New(64)
	if n := ringLen(q); n != 0 {
		t.Fatalf("new queue holds a ring of %d", n)
	}
	next, want := int64(0), int64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			if !q.TryPush(tup(next)) {
				t.Fatalf("TryPush %d failed below capacity", next)
			}
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			got, ok, _ := q.TryPop()
			if !ok || got.Values[0].Int() != want {
				t.Fatalf("pop = %v ok=%v, want %d", got, ok, want)
			}
			want++
		}
	}
	push(3)
	pop(2) // head moves to slot 2 of the 4-slot ring
	push(3)
	if n := ringLen(q); n != 4 {
		t.Fatalf("ring = %d, want 4", n)
	}
	push(1) // the ring has wrapped; growing must unwrap it in order
	if n := ringLen(q); n != 8 {
		t.Fatalf("ring = %d, want 8", n)
	}
	pop(3)
	push(60) // 67 pushed, 5 popped: a backlog of 62 in a 64-slot ring
	if n := ringLen(q); n != 64 {
		t.Fatalf("ring = %d, want 64", n)
	}
	push(2)
	if q.TryPush(tup(next)) {
		t.Fatal("TryPush succeeded at capacity")
	}
	if _, _, hwm := q.Stats(); hwm != 64 {
		t.Fatalf("high-water mark = %d, want 64", hwm)
	}
	pop(64)
	if pushed, popped, _ := q.Stats(); pushed != next || popped != want {
		t.Fatalf("stats pushed=%d popped=%d, want %d", pushed, popped, next)
	}
}

// Push blocks at the capacity, not at the size of the ring it has grown
// so far.
func TestPushBlocksAtCapacityNotRing(t *testing.T) {
	q := New(6)
	for i := int64(0); i < 4; i++ {
		if err := q.Push(tup(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := ringLen(q); n != 4 {
		t.Fatalf("ring = %d, want 4", n)
	}
	for i := int64(4); i < 6; i++ { // the ring is full, the queue is not
		if err := q.Push(tup(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := ringLen(q); n != 6 {
		t.Fatalf("ring = %d, want the capacity 6", n)
	}
	if q.TryPush(tup(6)) {
		t.Fatal("TryPush succeeded at capacity")
	}
	done := make(chan error)
	go func() { done <- q.Push(tup(6)) }()
	for { // wait until the Push is parked
		q.mu.Lock()
		parked := q.sleepPush == 1
		q.mu.Unlock()
		if parked {
			break
		}
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("Push at capacity returned %v without a Pop", err)
	default:
	}
	for i := int64(0); i <= 6; i++ {
		got, ok := q.Pop()
		if !ok || got.Values[0].Int() != i {
			t.Fatalf("pop %d = %v ok=%v", i, got, ok)
		}
		if i == 0 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A closed queue drops its ring once its last tuple is popped; an
// empty queue drops it at Close.
func TestRingDroppedWhenClosedAndDrained(t *testing.T) {
	q := New(8)
	for i := int64(0); i < 3; i++ {
		_ = q.Push(tup(i))
	}
	q.Close()
	if ringLen(q) == 0 {
		t.Fatal("ring dropped while tuples were still pending")
	}
	for i := int64(0); i < 3; i++ {
		if got, ok := q.Pop(); !ok || got.Values[0].Int() != i {
			t.Fatalf("pop %d = %v ok=%v", i, got, ok)
		}
	}
	if n := ringLen(q); n != 0 {
		t.Fatalf("closed, drained queue keeps a ring of %d", n)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained queue popped a tuple")
	}
	if pushed, popped, hwm := q.Stats(); pushed != 3 || popped != 3 || hwm != 3 {
		t.Fatalf("stats = %d %d %d", pushed, popped, hwm)
	}

	empty := New(8)
	_ = empty.Push(tup(1))
	_, _ = empty.Pop()
	empty.Close()
	if n := ringLen(empty); n != 0 {
		t.Fatalf("queue closed empty keeps a ring of %d", n)
	}
}

// Many producers and consumers through a queue whose ring grows and
// drops under them: every tuple arrives once, and each producer's
// tuples arrive in the order it pushed them.
func TestConcurrentRingGrowthKeepsOrder(t *testing.T) {
	q := New(64)
	const producers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Push(tup(int64(p*per + i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	var mu sync.Mutex
	last := make([]int, producers) // last index seen per producer, +1
	seen := 0
	var cg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				mu.Lock() // one pop at a time, so arrival order is pop order
				tu, ok := q.Pop()
				if !ok {
					mu.Unlock()
					return
				}
				v := int(tu.Values[0].Int())
				p, i := v/per, v%per
				if i+1 <= last[p] {
					t.Errorf("producer %d: tuple %d after %d", p, i, last[p]-1)
				}
				last[p] = i + 1
				seen++
				mu.Unlock()
			}
		}()
	}
	cg.Wait()
	if seen != producers*per {
		t.Fatalf("saw %d tuples, want %d", seen, producers*per)
	}
	if n := ringLen(q); n != 0 {
		t.Fatalf("closed, drained queue keeps a ring of %d", n)
	}
}
