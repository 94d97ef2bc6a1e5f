package mturk

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hit"
	"repro/internal/qlang"
	"repro/internal/relation"
)

func TestClockOrdering(t *testing.T) {
	c := NewClock()
	var got []int
	c.Schedule(3*time.Minute, func() { got = append(got, 3) })
	c.Schedule(1*time.Minute, func() { got = append(got, 1) })
	c.Schedule(2*time.Minute, func() { got = append(got, 2) })
	for c.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if c.Now().Minutes() != 3 {
		t.Fatalf("now = %v", c.Now().Minutes())
	}
}

func TestClockSameTimeFIFO(t *testing.T) {
	c := NewClock()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		c.Schedule(time.Minute, func() { got = append(got, i) })
	}
	for c.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestClockEventsScheduleEvents(t *testing.T) {
	c := NewClock()
	var fired bool
	c.Schedule(time.Minute, func() {
		c.Schedule(time.Minute, func() { fired = true })
	})
	for c.Step() {
	}
	if !fired {
		t.Fatal("nested event did not run")
	}
	if c.Now().Minutes() != 2 {
		t.Fatalf("now = %v", c.Now().Minutes())
	}
}

func TestClockNegativeDelay(t *testing.T) {
	c := NewClock()
	ran := false
	c.Schedule(-time.Hour, func() { ran = true })
	c.Step()
	if !ran || c.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, c.Now())
	}
}

func TestClockRunStopsWhenDone(t *testing.T) {
	c := NewClock()
	var count int32
	var done int32
	c.Schedule(time.Second, func() { atomic.AddInt32(&count, 1); atomic.StoreInt32(&done, 1) })
	finished := make(chan struct{})
	go func() {
		c.Run(func() bool { return atomic.LoadInt32(&done) == 1 })
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop")
	}
	if atomic.LoadInt32(&count) != 1 {
		t.Fatal("event did not run")
	}
}

func TestClockRunWaitsForLateSchedules(t *testing.T) {
	c := NewClock()
	var done int32
	finished := make(chan struct{})
	go func() {
		c.Run(func() bool { return atomic.LoadInt32(&done) == 1 })
		close(finished)
	}()
	// Schedule from outside after Run has gone idle.
	time.Sleep(5 * time.Millisecond)
	c.Schedule(time.Minute, func() { atomic.StoreInt32(&done, 1) })
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not pick up late schedule")
	}
}

func TestClockClose(t *testing.T) {
	c := NewClock()
	finished := make(chan struct{})
	go func() {
		c.Run(func() bool { return false })
		close(finished)
	}()
	time.Sleep(2 * time.Millisecond)
	c.Close()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not observe Close")
	}
	if !c.Closed() {
		t.Error("Closed() = false")
	}
	// Scheduling after close is a no-op.
	c.Schedule(time.Second, func() { t.Error("post-close event ran") })
	if c.Pending() != 0 {
		t.Error("post-close schedule accepted")
	}
}

// fakePool answers instantly with a fixed boolean per item.
type fakePool struct {
	mu       sync.Mutex
	claims   int
	noWorker int // first N claims report no worker
	abandons int // first N answers error
	delay    time.Duration
}

func (p *fakePool) Claim(h *hit.HIT, now VirtualTime) (Claim, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.claims++
	if p.noWorker > 0 {
		p.noWorker--
		return Claim{}, false
	}
	abandon := false
	if p.abandons > 0 {
		p.abandons--
		abandon = true
	}
	d := p.delay
	if d == 0 {
		d = time.Minute
	}
	return Claim{
		WorkerID: "w1",
		Delay:    d,
		Answer: func() (hit.Answers, error) {
			if abandon {
				return hit.Answers{}, errors.New("abandoned")
			}
			vals := make([]relation.Value, h.QuestionCount())
			for i := range vals {
				vals[i] = relation.NewBool(true)
			}
			return hit.Answers{Values: vals}, nil
		},
	}, true
}

func filterHIT(id string, assignments int) *hit.HIT {
	return &hit.HIT{
		ID: id, Task: "isCat", Type: qlang.TaskFilter,
		Question: "cat?", Response: qlang.Response{Kind: qlang.ResponseYesNo},
		Items:       []hit.Item{{Args: []relation.Value{relation.NewImage("x.png")}}},
		RewardCents: 2, Assignments: assignments,
	}
}

func pump(t *testing.T, c *Clock, stop func() bool) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.Run(stop)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("clock pump stuck")
	}
}

func TestMarketplacePostAndComplete(t *testing.T) {
	clock := NewClock()
	m := NewMarketplace(clock, &fakePool{})
	var mu sync.Mutex
	var results []AssignmentResult
	h := filterHIT(m.NewHITID(), 3)
	err := m.Post(h, func(r AssignmentResult) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	pump(t, clock, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results) == 3
	})
	st, ok := m.Status(h.ID)
	if !ok || st.Completed != 3 || st.Open() {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
	if st.Spent != 6 {
		t.Fatalf("spent = %v", st.Spent)
	}
	if st.DoneAt.Minutes() != 1 {
		t.Fatalf("done at %v minutes (parallel workers should finish together)", st.DoneAt.Minutes())
	}
	stats := m.Stats()
	if stats.HITsPosted != 1 || stats.AssignmentsCompleted != 3 || stats.SpentCents != 6 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestMarketplaceValidatesAndRejectsDuplicates(t *testing.T) {
	clock := NewClock()
	m := NewMarketplace(clock, &fakePool{})
	bad := filterHIT("", 1)
	if err := m.Post(bad, nil); err == nil {
		t.Error("invalid HIT accepted")
	}
	h := filterHIT("HIT-X", 1)
	if err := m.Post(h, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Post(filterHIT("HIT-X", 1), nil); err == nil {
		t.Error("duplicate HIT id accepted")
	}
}

func TestMarketplaceRetriesNoWorker(t *testing.T) {
	clock := NewClock()
	pool := &fakePool{noWorker: 2}
	m := NewMarketplace(clock, pool)
	var done int32
	h := filterHIT(m.NewHITID(), 1)
	_ = m.Post(h, func(AssignmentResult) { atomic.StoreInt32(&done, 1) })
	pump(t, clock, func() bool { return atomic.LoadInt32(&done) == 1 })
	// 2 failed claims + 1 success.
	if pool.claims != 3 {
		t.Fatalf("claims = %d", pool.claims)
	}
	// Latency = 2 backoffs + 1 minute of work.
	st, _ := m.Status(h.ID)
	want := 2*m.RetryBackoff + time.Minute
	if st.DoneAt.Duration() != want {
		t.Fatalf("done at %v, want %v", st.DoneAt.Duration(), want)
	}
}

func TestMarketplaceRetriesAbandonment(t *testing.T) {
	clock := NewClock()
	pool := &fakePool{abandons: 1}
	m := NewMarketplace(clock, pool)
	var done int32
	h := filterHIT(m.NewHITID(), 1)
	_ = m.Post(h, func(AssignmentResult) { atomic.StoreInt32(&done, 1) })
	pump(t, clock, func() bool { return atomic.LoadInt32(&done) == 1 })
	st, _ := m.Status(h.ID)
	if st.Completed != 1 {
		t.Fatalf("completed = %d", st.Completed)
	}
}

func TestMarketplaceExhaustsRetries(t *testing.T) {
	clock := NewClock()
	pool := &fakePool{noWorker: 1 << 30}
	m := NewMarketplace(clock, pool)
	m.MaxRetries = 3
	var failed int32
	m.SetErrorHandler(func(hitID string, err error) { atomic.StoreInt32(&failed, 1) })
	h := filterHIT(m.NewHITID(), 1)
	_ = m.Post(h, func(AssignmentResult) { t.Error("unexpected completion") })
	pump(t, clock, func() bool { return atomic.LoadInt32(&failed) == 1 })
	st, _ := m.Status(h.ID)
	if st.Completed != 0 || !st.Open() {
		t.Fatalf("status = %+v", st)
	}
}

// shortSheetPool answers every claim at once with a sheet one answer
// short of the HIT's questions.
type shortSheetPool struct{ claims atomic.Int32 }

func (p *shortSheetPool) Claim(h *hit.HIT, now VirtualTime) (Claim, bool) {
	p.claims.Add(1)
	return Claim{WorkerID: "w-short", Delay: time.Minute, Answer: func() (hit.Answers, error) {
		return hit.Answers{Values: make([]relation.Value, h.QuestionCount()-1)}, nil
	}}, true
}

// TestMarketplaceFailsMalformedSheet: a pool's sheet that does not
// answer every question fails its assignment — reported to the error
// handler, never delivered, and not reposted (it would be wrong again).
func TestMarketplaceFailsMalformedSheet(t *testing.T) {
	clock := NewClock()
	pool := &shortSheetPool{}
	m := NewMarketplace(clock, pool)
	var failed atomic.Int32
	m.SetErrorHandler(func(hitID string, err error) { failed.Add(1) })
	h := filterHIT(m.NewHITID(), 2)
	if err := m.Post(h, func(AssignmentResult) { t.Error("malformed sheet delivered") }); err != nil {
		t.Fatal(err)
	}
	pump(t, clock, func() bool { return failed.Load() == 2 })
	if n := pool.claims.Load(); n != 2 {
		t.Errorf("claims = %d, want one per assignment", n)
	}
	if st, _ := m.Status(h.ID); st.Completed != 0 || st.Spent != 0 {
		t.Errorf("status = %+v, want nothing completed or paid", st)
	}
}

func TestSubmitExternal(t *testing.T) {
	clock := NewClock()
	// Simulated workers are slow so the external submission wins.
	m := NewMarketplace(clock, &fakePool{delay: time.Hour})
	var mu sync.Mutex
	var results []AssignmentResult
	h := filterHIT(m.NewHITID(), 1)
	_ = m.Post(h, func(r AssignmentResult) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	ans := hit.Answers{Values: []relation.Value{relation.NewBool(false)}}
	// A sheet that does not answer exactly the HIT's one question is
	// refused and fills no slot.
	for _, bad := range [][]relation.Value{nil, {relation.NewBool(true), relation.NewBool(true)}} {
		if err := m.SubmitExternal(h.ID, hit.Answers{Values: bad}); err == nil {
			t.Errorf("submit of %d answers for 1 question accepted", len(bad))
		}
	}
	if err := m.SubmitExternal(h.ID, ans); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(results)
	ext := n == 1 && results[0].External
	mu.Unlock()
	if n != 1 || !ext {
		t.Fatalf("results = %d external=%v", n, ext)
	}
	// HIT is now fully assigned: further externals fail...
	if err := m.SubmitExternal(h.ID, ans); err == nil {
		t.Error("submit on filled HIT accepted")
	}
	if err := m.SubmitExternal("nope", ans); err == nil {
		t.Error("submit on unknown HIT accepted")
	}
	// ...and the late simulated worker is discarded unpaid.
	for clock.Step() {
	}
	st, _ := m.Status(h.ID)
	if st.Completed != 1 || st.Spent != 2 {
		t.Fatalf("status after late worker = %+v", st)
	}
}

func TestOpenAndAllHITs(t *testing.T) {
	clock := NewClock()
	m := NewMarketplace(clock, &fakePool{})
	h1 := filterHIT(m.NewHITID(), 1)
	h2 := filterHIT(m.NewHITID(), 1)
	_ = m.Post(h1, nil)
	_ = m.Post(h2, nil)
	if got := len(m.OpenHITs()); got != 2 {
		t.Fatalf("open = %d", got)
	}
	for clock.Step() {
	}
	if got := len(m.OpenHITs()); got != 0 {
		t.Fatalf("open after completion = %d", got)
	}
	all := m.AllHITs()
	if len(all) != 2 || all[0].HIT.ID != h1.ID {
		t.Fatalf("all = %v", all)
	}
	if _, ok := m.Status("nope"); ok {
		t.Error("unknown status lookup succeeded")
	}
}

func TestVirtualTimeHelpers(t *testing.T) {
	v := VirtualTime(90 * time.Second)
	if v.Minutes() != 1.5 || v.Duration() != 90*time.Second {
		t.Fatalf("helpers = %v %v", v.Minutes(), v.Duration())
	}
}
