package taskmgr

import (
	"fmt"
	"sync"

	"repro/internal/budget"
	"repro/internal/mturk"
)

// This file is the admission scheduler: every HIT, whatever its kind,
// passes through it on the way to its backend. With no gate configured
// HITs post immediately in the order they were opened, preserving the
// ungated behavior; with SetAdmission(n) at most n admitted HITs are in
// flight at once and further HITs queue, ordered by priority, then
// weighted fair share of admitted HITs per scope, then FIFO — so a
// thousand queued queries degrade gracefully instead of flooding the
// marketplace, and no scope can starve another at equal priority.

// queuedHIT is one opened HIT waiting for an admission slot. While it
// waits, its shares hold the provisional cost booked on each scope.
type queuedHIT struct {
	fl     *inflightHIT
	pol    Policy // the policy the HIT was opened under
	free   func() // delivers the answers its caller resolved without the crowd; nil when none
	seq    int64
	prio   int               // highest scope priority among its questions
	owner  *Scope            // fair-share accounting key (first share's scope)
	weight int               // owner's fair-share weight at enqueue time
	at     mturk.VirtualTime // enqueue time; tracing's admission-wait basis
}

type scheduler struct {
	mu          sync.Mutex
	max         int // 0 = unlimited
	inflight    int // admitted HITs not yet retired
	nextSeq     int64
	queue       []queuedHIT
	admitted    map[*Scope]int64 // fair-share history per owner
	dispatching bool
}

// SetAdmission caps concurrently in-flight HITs of every kind (0 =
// unlimited). Lowering the cap does not recall posted HITs; it only
// gates future admissions. Raising it admits queued HITs immediately.
func (m *Manager) SetAdmission(maxInflight int) {
	m.sched.mu.Lock()
	m.sched.max = maxInflight
	m.sched.mu.Unlock()
	m.dispatch()
}

// enqueue queues one opened HIT of any kind for an admission slot; the
// caller dispatches once it has queued what it opened. While it waits, its
// provisional cost (the policy price at the assignment cap) is booked
// on its scopes, so Scope.RemainingBudget sees queued-but-unposted work;
// the authoritative split is re-derived at post time, when canceled
// scopes have been filtered out. A HIT whose scope was canceled before
// it queued fails at once: either Cancel's sweep saw it queued, or the
// check here sweeps it. free, when set, delivers the answers the caller
// resolved without the crowd once the HIT has posted or failed.
func (m *Manager) enqueue(fl *inflightHIT, pol Policy, free func()) {
	fl.split(budget.Cents(pol.PriceCents * int64(pol.Assignments)))
	q := queuedHIT{fl: fl, pol: pol, free: free, owner: fl.shares[0].scope, at: m.market.Clock().Now()}
	for _, sh := range fl.shares {
		sh.scope.addQueuedCost(sh.cost)
	}
	if fl.kind == kindBatch {
		q.prio = fl.items[0].priority
		for _, it := range fl.items[1:] {
			q.prio = max(q.prio, it.priority)
		}
	} else {
		q.prio = q.owner.priorityNow()
	}
	q.weight = q.owner.weightNow()
	var canceled []*Scope
	s := &m.sched
	s.mu.Lock()
	s.nextSeq++
	q.seq = s.nextSeq
	s.queue = append(s.queue, q)
	for _, sh := range fl.shares {
		if sh.scope.Err() != nil {
			canceled = append(canceled, sh.scope)
		}
	}
	s.mu.Unlock()
	for _, sc := range canceled {
		m.sweepScheduler(sc, sc.Err())
	}
}

// dispatch admits queued HITs while the gate has room. Only one
// goroutine dispatches at a time; the others return immediately — the
// active dispatcher holds the flag from its final queue check to the
// clear, so HITs enqueued concurrently are never stranded.
func (m *Manager) dispatch() {
	s := &m.sched
	s.mu.Lock()
	if s.dispatching {
		s.mu.Unlock()
		return
	}
	s.dispatching = true
	for len(s.queue) > 0 && (s.max <= 0 || s.inflight < s.max) {
		q := s.takeLocked()
		s.inflight++
		if s.admitted == nil {
			s.admitted = make(map[*Scope]int64)
		}
		s.admitted[q.owner]++
		s.mu.Unlock()
		posted := m.postHIT(q)
		s.mu.Lock()
		if !posted {
			s.inflight--
		}
	}
	s.dispatching = false
	s.mu.Unlock()
}

// hitRetired releases the admission slot of a HIT that left the
// in-flight table (completion, terminal assignment failure, full expiry
// or cancellation), then admits queued work into the freed slot.
func (m *Manager) hitRetired() {
	m.sched.mu.Lock()
	m.sched.inflight--
	m.sched.mu.Unlock()
	m.dispatch()
}

// takeLocked pops the best queued HIT: highest priority first, then the
// owner with the fewest admitted HITs per unit of fair-share weight
// (compared by cross-multiplication, so the arithmetic stays in
// integers), then lowest sequence number (FIFO). The scan is linear —
// queues are bounded by the burst the gate is absorbing. sched.mu
// held.
func (s *scheduler) takeLocked() queuedHIT {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		if s.betterLocked(&s.queue[i], &s.queue[best]) {
			best = i
		}
	}
	q := s.queue[best]
	copy(s.queue[best:], s.queue[best+1:])
	s.queue[len(s.queue)-1] = queuedHIT{}
	s.queue = s.queue[:len(s.queue)-1]
	return q
}

func (s *scheduler) betterLocked(a, b *queuedHIT) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	aw, bw := int64(a.weight), int64(b.weight)
	aa, ba := s.admitted[a.owner], s.admitted[b.owner]
	if aa*bw != ba*aw {
		return aa*bw < ba*aw
	}
	return a.seq < b.seq
}

// sweepScheduler takes a canceled scope out of the admission queue: its
// provisional cost releases, a queued HIT it holds alone fails with the
// cause, and its items leave queued shared batches, each resolving with
// the cause, while the other scopes' items keep their place.
func (m *Manager) sweepScheduler(sc *Scope, cause error) {
	s := &m.sched
	s.mu.Lock()
	var dropped []pendingItem
	var failed []queuedHIT
	kept := s.queue[:0]
	for _, q := range s.queue {
		fl := q.fl
		i := fl.shareOf(sc)
		if i < 0 {
			kept = append(kept, q)
			continue
		}
		sc.addQueuedCost(-fl.shares[i].cost)
		if len(fl.shares) == 1 {
			failed = append(failed, q)
			continue
		}
		fl.shares = append(fl.shares[:i], fl.shares[i+1:]...)
		fl.items, dropped = takeScope(fl.items, sc, dropped)
		kept = append(kept, q)
	}
	clear(s.queue[len(kept):])
	s.queue = kept
	delete(s.admitted, sc)
	s.mu.Unlock()
	for _, it := range dropped {
		it.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", it.def.Name, cause)})
	}
	for _, q := range failed {
		q.settle(fmt.Errorf("taskmgr: %s: %w", q.fl.def.Name, cause))
	}
}

// Retire drops the scope's fair-share history once its query is over:
// every request it submitted has resolved, so it holds no queued HIT and
// never queues another, and the admission order of the rest does not
// change. Nil-safe.
func (s *Scope) Retire() {
	if s == nil {
		return
	}
	sc := &s.mgr.sched
	sc.mu.Lock()
	delete(sc.admitted, s)
	sc.mu.Unlock()
}

// settle ends a dequeued HIT's admission: the answers its caller
// resolved without the crowd are delivered first, then, when err is
// set, everything the HIT still owes fails with it.
func (q *queuedHIT) settle(err error) {
	if q.free != nil {
		q.free()
	}
	if err != nil {
		q.fl.fail(err)
	}
}
