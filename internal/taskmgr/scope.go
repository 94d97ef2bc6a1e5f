package taskmgr

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/qerr"
)

// Scope groups the task applications of one query so they can be
// governed — and canceled — together. A scope carries the per-query
// knobs of the context-first API: an optional budget cap layered under
// the engine account, per-task policy overrides, and a batching
// priority. Cancel resolves every pending item with the cause, expires
// the scope's open HITs at the marketplace (late submissions are
// discarded unpaid, like MTurk's DeleteHIT) and refunds the money those
// HITs had charged for assignments that never completed, so only the
// query's true sunk cost stays spent.
//
// By default items of different scopes never share a HIT: a HIT
// belongs to exactly one scope (or none), which is what makes whole-HIT
// expiry sound. Scopes that opt in via SetShared (or a task's Share:
// property) may instead co-batch with other sharing scopes whose
// effective posting policy matches; each participant then holds a
// hitShare — its slice of the HIT cost, split by item count — and
// cancellation detaches just that share rather than expiring the HIT.
type Scope struct {
	mgr *Manager

	mu       sync.Mutex
	err      error // cancellation cause; nil while live
	budget   *budget.Account
	policies map[string]Policy
	priority int
	shared   bool
	weight   int // fair-share weight; <1 reads as 1
	spent    budget.Cents
	queued   budget.Cents    // provisional cost of admission-queued HITs
	hits     map[string]bool // open HIT IDs posted for this scope; nil while none is open
	label    string          // optional metrics label (per-scope series)

	// posting counts HIT posts that passed the cancellation check and
	// have not registered their HIT yet; Cancel waits on postDone for
	// them, so no HIT of this scope reaches the marketplace after Cancel
	// returns.
	posting  int
	postDone sync.Cond

	// span is the owning query's trace span (SetSpan); read on posting
	// paths without mu, hence atomic.
	span atomic.Pointer[obs.Span]
}

// NewScope creates a live scope bound to the manager.
func (m *Manager) NewScope() *Scope {
	s := &Scope{mgr: m}
	s.postDone.L = &s.mu
	return s
}

// SetBudget caps this scope's total spend (0 removes the cap). The
// engine-wide account still applies on top.
func (s *Scope) SetBudget(limit budget.Cents) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 {
		s.budget = nil
		return
	}
	s.budget = budget.NewAccount(limit)
}

// SetPolicy overrides the named task's policy for this scope only.
// TASK-definition overrides (Price/Assignments/Batch clauses) still win,
// exactly as they do over engine-level policies.
func (s *Scope) SetPolicy(task string, p Policy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.policies == nil {
		s.policies = make(map[string]Policy)
	}
	s.policies[strings.ToLower(task)] = p
}

// SetPriority orders this scope's pending items ahead of (positive) or
// behind (negative) other scopes when batches are cut. Default 0.
func (s *Scope) SetPriority(p int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.priority = p
}

func (s *Scope) policyFor(task string) (Policy, bool) {
	if s == nil {
		return Policy{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.policies[task]
	return p, ok
}

func (s *Scope) priorityNow() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.priority
}

// SetShared opts this scope's submissions into cross-query HIT
// sharing: its items may fill one HIT together with items from other
// sharing scopes whose effective posting policy for the task matches.
// Canceling the scope then detaches its items from shared HITs —
// refunding its share of the unconsumed cost — instead of expiring the
// whole HIT under the other participants.
func (s *Scope) SetShared(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shared = on
}

func (s *Scope) sharedNow() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shared
}

// SetWeight sets this scope's fair-share weight (default 1): under an
// admission gate, a weight-2 scope is offered HIT slots twice as often
// as a weight-1 scope at equal priority. Values below 1 read
// as 1.
func (s *Scope) SetWeight(w int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.weight = w
}

func (s *Scope) weightNow() int {
	if s == nil {
		return 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.weight < 1 {
		return 1
	}
	return s.weight
}

// SetLabel names this scope for metrics: when set, cost counters gain a
// per-scope labeled series (tenant, workload, ...) alongside the
// per-task ones. Leave empty (the default) to keep series cardinality
// bounded by task and backend alone.
func (s *Scope) SetLabel(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.label = label
}

func (s *Scope) labelNow() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.label
}

// addQueuedCost tracks the provisional cost of this scope's HITs
// sitting in the admission queue (positive at enqueue, negative at
// admission or sweep), so RemainingBudget does not over-report
// headroom while work is queued but not yet charged.
func (s *Scope) addQueuedCost(c budget.Cents) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queued += c
	if s.queued < 0 {
		s.queued = 0
	}
}

// Err returns the cancellation cause, or nil while the scope is live.
func (s *Scope) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// RemainingBudget reports the scope's unspent budget headroom. ok is
// false when the scope is nil or uncapped (unlimited headroom); the
// sort subsystem uses it to size hybrid comparison refinement. The
// headroom is net of HITs sitting in the admission queue — they
// have not been charged yet, but they will be, so planners sizing
// future work against a concurrently-charged scope see a conservative
// snapshot rather than a stale one.
func (s *Scope) RemainingBudget() (budget.Cents, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget == nil {
		return 0, false
	}
	rem := s.budget.Remaining() - s.queued
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// Spent reports the scope's sunk cost: money charged for its HITs minus
// refunds for assignments expired by cancellation.
func (s *Scope) Spent() budget.Cents {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spent
}

// spend charges the scope's own budget (when capped) and records the
// sunk cost. It fails without side effects when the cap cannot cover
// the charge.
func (s *Scope) spend(cost budget.Cents) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget != nil {
		if err := s.budget.Spend(cost); err != nil {
			return err
		}
	}
	s.spent += cost
	return nil
}

// refund returns money to the scope (cap headroom and sunk-cost line).
func (s *Scope) refund(amount budget.Cents) {
	if s == nil || amount <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget != nil {
		s.budget.Refund(amount)
	}
	s.spent -= amount
	if s.spent < 0 {
		s.spent = 0
	}
}

// registerHIT records an open HIT as belonging to this scope. It fails
// with the cancellation cause when the scope was canceled while the HIT
// was being posted — the caller must then expire the HIT itself.
func (s *Scope) registerHIT(hitID string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.hits == nil {
		s.hits = make(map[string]bool)
	}
	s.hits[hitID] = true
	return nil
}

// beginPost admits one HIT post for this scope: it fails with the
// cancellation cause once the scope is canceled, and otherwise makes a
// later Cancel wait for the matching endPost.
func (s *Scope) beginPost() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.posting++
	return nil
}

// endPost ends a post admitted by beginPost.
func (s *Scope) endPost() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.posting--; s.posting == 0 {
		s.postDone.Broadcast()
	}
}

// unregisterHIT forgets a HIT that resolved through the normal paths.
// The last one releases the set, which registerHIT makes again on
// demand, so a finished query's scope holds no map.
func (s *Scope) unregisterHIT(hitID string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.hits, hitID)
	if len(s.hits) == 0 {
		s.hits = nil
	}
}

// Cancel terminates the scope with cause (ErrCanceled when nil):
// pending items resolve with the cause, open HITs are expired and their
// uncompleted assignments refunded, and every later Submit for this
// scope fails fast without posting. Idempotent; the first cause wins.
func (s *Scope) Cancel(cause error) {
	if s == nil {
		return
	}
	if cause == nil {
		cause = qerr.ErrCanceled
	}
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = cause
	// A post admitted before the cause was set finishes first: it either
	// registers its HIT (collected below) or, seeing the cause, expires
	// the HIT itself.
	for s.posting > 0 {
		s.postDone.Wait()
	}
	open := make([]string, 0, len(s.hits))
	for id := range s.hits {
		open = append(open, id)
	}
	s.hits = nil
	s.mu.Unlock()
	s.mgr.sweepCanceledPending(s, cause)
	s.mgr.sweepScheduler(s, cause)
	for _, id := range open {
		s.mgr.cancelScopeHIT(id, s, cause)
	}
	// Close the query's whole span tree: cancellation must leave no
	// orphan spans, whatever state each batch or HIT was in. (A shared
	// HIT surviving under other scopes keeps its own span; it was
	// parented under the first share's scope, and counters on an ended
	// span are harmless.)
	s.Span().CloseTree()
}

// sweepCanceledPending removes the scope's queued-but-unposted items
// from every task state and resolves them with the cause.
func (m *Manager) sweepCanceledPending(s *Scope, cause error) {
	var dropped []pendingItem
	for _, st := range m.states() {
		st.mu.Lock()
		st.pending, dropped = takeScope(st.pending, s, dropped)
		st.mu.Unlock()
	}
	for _, it := range dropped {
		it.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", it.def.Name, cause)})
	}
}

// cancelScopeHIT withdraws one scope's stake from a posted HIT of any
// kind. For a HIT the scope holds alone — the default, and every group,
// grid and comparison HIT — that is full expiry: the HIT is removed
// from the in-flight table (so a racing completion finalizes nothing),
// disposed at the backend, its uncompleted assignments refunded, and
// everything it still owes resolved with the cause. For a HIT shared
// with other live scopes the stake merely detaches: the scope's items
// resolve with the cause, its share of the cost covering assignments
// not yet completed refunds, and the HIT keeps running for the
// remaining participants. The table lock arbitrates against
// finalization, so each question still resolves exactly once.
func (m *Manager) cancelScopeHIT(hitID string, sc *Scope, cause error) {
	t := &m.flights
	t.mu.Lock()
	fl, ok := t.hits[hitID]
	if !ok {
		t.mu.Unlock()
		return
	}
	idx, live := -1, 0
	for i := range fl.shares {
		if fl.shares[i].detached {
			continue
		}
		live++
		if fl.shares[i].scope == sc {
			idx = i
		}
	}
	if idx < 0 {
		// The scope's share already detached (or was never here);
		// nothing left to withdraw.
		t.mu.Unlock()
		return
	}
	sh := &fl.shares[idx]
	err := fmt.Errorf("taskmgr: %s: %w", fl.hit.Task, cause)
	if live > 1 {
		// Detach: the HIT survives for the other participants. The
		// scope's items are marked detached so finalization skips them,
		// and its share of the not-yet-completed assignments refunds;
		// the consumed remainder stays on sh.cost so a later full expiry
		// cannot refund it again.
		sh.detached = true
		dones := make([]func(Outcome), 0, sh.items)
		for i := range fl.items {
			if it := &fl.items[i]; it.scope == sc && !it.detached {
				it.detached = true
				dones = append(dones, it.done)
			}
		}
		refund := unconsumed(sh.cost, fl.assign, fl.received)
		sh.cost -= refund
		m.noteHITCanceled(fl, refund, false)
		t.mu.Unlock()
		if refund > 0 {
			m.account.Refund(refund)
			sc.refund(refund)
		}
		for _, done := range dones {
			done(Outcome{Err: err})
		}
		return
	}
	// Sole live participant: full expiry. The refund and its trace
	// record are computed under the table lock (a racing extension
	// could otherwise append to extSpans mid-read); the backend and
	// ledgers are only touched after release. An assignment the backend
	// completed after this point never reaches the HIT and is refunded
	// with the rest: the scope pays only for answers it received.
	delete(t.hits, hitID)
	refund := unconsumed(sh.cost, fl.assign, fl.received)
	m.noteHITCanceled(fl, refund, true)
	t.mu.Unlock()
	m.market.Dispose(hitID)
	if refund > 0 {
		m.account.Refund(refund)
		sc.refund(refund)
	}
	fl.fail(err)
	m.hitRetired()
}

// unconsumed is the slice of a share's cost covering assignments that
// have not completed: cost × (assignments − received) ∕ assignments,
// floored. Account and scope both refund exactly this, so the two
// ledgers move in lockstep and a share can never refund more than it
// was charged.
func unconsumed(cost budget.Cents, assignments, received int) budget.Cents {
	if assignments <= 0 || received >= assignments {
		return 0
	}
	if received <= 0 {
		return cost
	}
	return cost * budget.Cents(assignments-received) / budget.Cents(assignments)
}
