package taskmgr

import (
	"fmt"
	"sync"

	"repro/internal/budget"
	"repro/internal/mturk"
)

// This file is the admission scheduler: every cut batch passes through
// it on the way to the marketplace. With no gate configured batches
// post immediately in cut order, preserving the ungated behavior; with
// SetAdmission(n) at most n scheduler-admitted HITs are in flight at
// once and further batches queue, ordered by priority, then weighted
// fair share of admitted HITs per scope, then FIFO — so a thousand
// queued queries degrade gracefully instead of flooding the
// marketplace, and no scope can starve another at equal priority.

// queuedBatch is one cut batch waiting for an admission slot.
type queuedBatch struct {
	st     *taskState
	batch  []pendingItem
	seq    int64
	prio   int               // highest item priority in the batch
	owner  *Scope            // fair-share accounting key (first item's scope)
	weight int               // owner's fair-share weight at enqueue time
	at     mturk.VirtualTime // enqueue time; tracing's admission-wait basis
	// charged records the provisional per-scope cost released when the
	// batch is admitted (or its scope swept); see Scope.addQueuedCost.
	charged []hitShare
}

func (qb *queuedBatch) releaseProvisional() {
	for _, pc := range qb.charged {
		pc.scope.addQueuedCost(-pc.cost)
	}
	qb.charged = nil
}

type scheduler struct {
	mu          sync.Mutex
	max         int // 0 = unlimited
	inflight    int // admitted HITs not yet retired
	nextSeq     int64
	queue       []*queuedBatch
	admitted    map[*Scope]int64 // fair-share history per owner
	dispatching bool
}

// SetAdmission caps concurrently in-flight batch HITs posted through
// the scheduler (0 = unlimited). Lowering the cap does not recall
// posted HITs; it only gates future admissions. Raising it admits
// queued batches immediately.
func (m *Manager) SetAdmission(maxInflight int) {
	m.sched.mu.Lock()
	m.sched.max = maxInflight
	m.sched.mu.Unlock()
	m.dispatch()
}

// enqueueBatch registers one cut batch with the scheduler, recording a
// provisional per-scope cost so Scope.RemainingBudget sees
// queued-but-unposted work (the authoritative split is re-derived at
// post time, when canceled scopes have been filtered out).
func (m *Manager) enqueueBatch(st *taskState, batch []pendingItem) {
	pol := m.batchPolicy(st, batch)
	cost := budget.Cents(pol.PriceCents * int64(pol.Assignments))
	prio := batch[0].priority
	for _, it := range batch[1:] {
		if it.priority > prio {
			prio = it.priority
		}
	}
	charged := shareOut(batch, cost)
	for _, sh := range charged {
		sh.scope.addQueuedCost(sh.cost)
	}
	s := &m.sched
	s.mu.Lock()
	s.nextSeq++
	s.queue = append(s.queue, &queuedBatch{
		st:      st,
		batch:   batch,
		seq:     s.nextSeq,
		prio:    prio,
		owner:   batch[0].scope,
		weight:  batch[0].scope.weightNow(),
		at:      m.market.Clock().Now(),
		charged: charged,
	})
	s.mu.Unlock()
}

// dispatch admits queued batches while the gate has room. Only one
// goroutine dispatches at a time; the others return immediately — the
// active dispatcher holds the flag from its final queue check to the
// clear, so batches enqueued concurrently are never stranded.
func (m *Manager) dispatch() {
	s := &m.sched
	s.mu.Lock()
	if s.dispatching {
		s.mu.Unlock()
		return
	}
	s.dispatching = true
	for len(s.queue) > 0 && (s.max <= 0 || s.inflight < s.max) {
		qb := s.takeLocked()
		s.inflight++
		if s.admitted == nil {
			s.admitted = make(map[*Scope]int64)
		}
		s.admitted[qb.owner]++
		s.mu.Unlock()
		qb.releaseProvisional()
		posted := m.postBatch(qb.st, qb.batch, qb.at)
		s.mu.Lock()
		if !posted {
			s.inflight--
		}
	}
	s.dispatching = false
	s.mu.Unlock()
}

// hitRetired releases an admission slot when a scheduler-admitted HIT
// leaves the in-flight table (completion, terminal assignment failure,
// or full expiry), then admits queued work into the freed slot.
func (m *Manager) hitRetired(fl *inflightHIT) {
	if !fl.admitted {
		return
	}
	m.sched.mu.Lock()
	m.sched.inflight--
	m.sched.mu.Unlock()
	m.dispatch()
}

// takeLocked pops the best queued batch: highest priority first, then
// the owner with the fewest admitted HITs per unit of fair-share
// weight (compared by cross-multiplication, so the arithmetic stays in
// integers), then lowest sequence number (FIFO). The scan is linear —
// queues are bounded by the burst the gate is absorbing. sched.mu
// held.
func (s *scheduler) takeLocked() *queuedBatch {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		if s.betterLocked(s.queue[i], s.queue[best]) {
			best = i
		}
	}
	qb := s.queue[best]
	copy(s.queue[best:], s.queue[best+1:])
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	return qb
}

func (s *scheduler) betterLocked(a, b *queuedBatch) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	aw, bw := int64(a.weight), int64(b.weight)
	if aw < 1 {
		aw = 1
	}
	if bw < 1 {
		bw = 1
	}
	aa, ba := s.admitted[a.owner], s.admitted[b.owner]
	if aa*bw != ba*aw {
		return aa*bw < ba*aw
	}
	return a.seq < b.seq
}

func (s *scheduler) queuedItems() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, qb := range s.queue {
		n += len(qb.batch)
	}
	return n
}

// sweepScheduler removes a canceled scope's items from every queued
// batch: its provisional cost releases, its items resolve with the
// cause, and batches emptied by the sweep leave the queue. Other
// scopes' shares of a co-batched entry keep their place.
func (m *Manager) sweepScheduler(sc *Scope, cause error) {
	s := &m.sched
	s.mu.Lock()
	var dropped []pendingItem
	kept := s.queue[:0]
	for _, qb := range s.queue {
		rest := qb.batch[:0:0]
		for _, it := range qb.batch {
			if it.scope == sc {
				dropped = append(dropped, it)
			} else {
				rest = append(rest, it)
			}
		}
		qb.batch = rest
		keptCharges := qb.charged[:0]
		for _, pc := range qb.charged {
			if pc.scope == sc {
				pc.scope.addQueuedCost(-pc.cost)
			} else {
				keptCharges = append(keptCharges, pc)
			}
		}
		qb.charged = keptCharges
		if len(qb.batch) > 0 {
			kept = append(kept, qb)
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
	delete(s.admitted, sc)
	s.mu.Unlock()
	for _, it := range dropped {
		it.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", it.def.Name, cause)})
	}
}
