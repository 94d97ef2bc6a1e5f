package taskmgr

import (
	"strings"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/infer"
	"repro/internal/qlang"
	"repro/internal/stats"
	"repro/internal/store"
)

// Answer-inference defaults (SetInference zero values).
const (
	// DefaultTargetConfidence is the posterior confidence at which the
	// adaptive loop stops buying assignments.
	DefaultTargetConfidence = 0.85
	// DefaultMinAssignments is the adaptive posting floor used when EM
	// is enabled without choosing one.
	DefaultMinAssignments = 2
)

// inferConfig is the engine-wide answer-inference configuration,
// swapped atomically so posting paths read it without a lock.
type inferConfig struct {
	method string
	min    int
	target float64
}

// SetInference selects the engine-wide answer-inference method:
// "majority" (or "") keeps seed-identical majority voting; "em" turns
// on joint worker-quality/answer inference with adaptive redundancy —
// eligible HITs post with minAssignments assignments
// (DefaultMinAssignments when 0) and extend one at a time up to the
// policy's Assignments cap until every item's posterior reaches target
// (DefaultTargetConfidence when 0). A task's Infer: property overrides
// the method per task; its MinAssignments: property overrides the
// floor.
func (m *Manager) SetInference(method string, minAssignments int, target float64) {
	method = strings.ToLower(strings.TrimSpace(method))
	if method == "" {
		method = "majority"
	}
	if minAssignments <= 0 {
		minAssignments = DefaultMinAssignments
	}
	if target <= 0 {
		target = DefaultTargetConfidence
	}
	m.inference.Store(&inferConfig{method: method, min: minAssignments, target: target})
}

// InferenceMethod reports the engine-wide inference method ("majority"
// until SetInference says otherwise).
func (m *Manager) InferenceMethod() string {
	if cfg := m.inference.Load(); cfg != nil {
		return cfg.method
	}
	return "majority"
}

// inferencePlan resolves one batch's effective aggregator, stopping
// target, and adaptive posting floor. The task's Infer: property wins
// over the engine-wide method. A nil aggregator is the majority path —
// byte-identical to the seed. Rating tasks always reduce by mean and
// never get an aggregator.
func (m *Manager) inferencePlan(def *qlang.TaskDef, pol Policy) (agg infer.Aggregator, target float64, minAssignments int) {
	cfg := m.inference.Load()
	method := ""
	target = DefaultTargetConfidence
	minAssignments = pol.MinAssignments
	if cfg != nil {
		method = cfg.method
		target = cfg.target
		if minAssignments == 0 {
			minAssignments = cfg.min
		}
	}
	if def != nil {
		if def.Infer != "" {
			method = def.Infer
		}
		if def.Type == qlang.TaskRating {
			return nil, 0, 0
		}
	}
	if method != "em" {
		return nil, 0, 0
	}
	return &infer.EM{Prior: m.workerPrior}, target, minAssignments
}

// workerPrior blends a worker's prior accuracy from every evidence
// stream: the default prior's pseudo-observations, the live
// majority-agreement record (reputation.go), and the EM-quality EWMA
// (journaled fits plus replayed store evidence). The weight is the
// total pseudo-observation count, so two agreeing strangers still need
// refinement to reach the stopping target while a proven-good worker's
// vote counts for more from the first round.
func (m *Manager) workerPrior(worker string) (acc, weight float64) {
	num := infer.DefaultPriorAcc * infer.DefaultPriorWeight
	weight = infer.DefaultPriorWeight
	if worker == "" {
		return num / weight, weight
	}
	m.repMu.Lock()
	if rec := m.workers[worker]; rec != nil && rec.votes > 0 {
		num += float64(rec.agreed)
		weight += float64(rec.votes)
	}
	if e := m.quality[worker]; e != nil && e.Count() > 0 {
		w := float64(e.Count())
		num += e.Value() * w
		weight += w
	}
	m.repMu.Unlock()
	return num / weight, weight
}

// votesByItem rebuilds per-item vote lists (in HIT item order, so fits
// are deterministic) from the collected per-worker answer sheets,
// skipping items whose share detached. Called under the stripe lock or
// after the HIT left the in-flight table.
func (fl *inflightHIT) votesByItem() (items [][]infer.Vote, keys []string) {
	items = make([][]infer.Vote, 0, len(fl.hit.Items))
	keys = make([]string, 0, len(fl.hit.Items))
	for _, hi := range fl.hit.Items {
		if _, ok := fl.byKey[hi.Key]; !ok {
			continue
		}
		var votes []infer.Vote
		for _, wa := range fl.byWorker {
			if v, ok := wa.Values[hi.Key]; ok {
				votes = append(votes, infer.Vote{Worker: wa.WorkerID, Value: v})
			}
		}
		items = append(items, votes)
		keys = append(keys, hi.Key)
	}
	return items, keys
}

// itemsConfident reports whether every live item's posterior has
// reached the stopping target under the HIT's aggregator. Stripe lock
// held; the EM fit takes repMu inside (stripe → repMu never inverts:
// reputation paths take repMu alone).
func (m *Manager) itemsConfident(fl *inflightHIT) bool {
	em, ok := fl.agg.(*infer.EM)
	if !ok {
		return true
	}
	items, _ := fl.votesByItem()
	ps, _ := em.Fit(items, fl.boolTask)
	for _, p := range ps {
		if p.Confidence < fl.target {
			return false
		}
	}
	return true
}

// extendInflight buys one more assignment for an unsure adaptive HIT.
// Money first, bookkeeping second, backend last: the scope and account
// are charged with no stripe lock held (cancellation's scope.mu →
// stripe order), the in-flight counters commit only if the HIT is
// still live — a cancel that raced the charge gets the money straight
// back — and a backend that rejects the extension rolls everything
// back, finalizes the HIT at its current posterior, and flips the
// manager to full-cap posting (extendBroken). Because every adaptive
// HIT keeps cost == reward × assign, a cancel landing after the commit
// refunds exactly the one unconsumed extension slot through the normal
// unconsumed() pro-rata path.
func (m *Manager) extendInflight(s *flightStripe, hitID string, fl *inflightHIT) {
	price := budget.Cents(fl.hit.RewardCents)
	sc := fl.shares[0].scope
	if err := sc.spend(price); err != nil {
		// Scope budget exhausted mid-extension: stop here and finalize
		// with the posterior the paid-for assignments bought.
		m.finalizeAdaptive(s, hitID, fl)
		return
	}
	if err := m.account.Spend(price); err != nil {
		sc.refund(price)
		m.finalizeAdaptive(s, hitID, fl)
		return
	}
	s.mu.Lock()
	if _, live := s.hits[hitID]; !live {
		// Cancellation raced the charge; its refund was computed against
		// the pre-extension assignment count, so this charge comes back
		// here, in full.
		s.mu.Unlock()
		m.account.Refund(price)
		sc.refund(price)
		return
	}
	fl.needed++
	fl.assign++
	fl.cost += price
	fl.shares[0].cost += price
	s.mu.Unlock()
	st := fl.state
	st.mu.Lock()
	st.spent += price
	st.mu.Unlock()
	if err := backend.Extend(m.market, hitID, 1); err != nil {
		m.extendFailures.Add(1)
		m.extendBroken.Store(true)
		rolledBack := false
		s.mu.Lock()
		if _, live := s.hits[hitID]; live {
			fl.needed--
			fl.assign--
			fl.cost -= price
			fl.shares[0].cost -= price
			rolledBack = true
		}
		s.mu.Unlock()
		if !rolledBack {
			// The HIT was canceled between the commit and the backend
			// call; cancellation's pro-rata refund already covered the
			// unconsumed extension slot, so the ledgers balance without
			// another refund here.
			return
		}
		st.mu.Lock()
		st.spent -= price
		st.mu.Unlock()
		m.account.Refund(price)
		sc.refund(price)
		m.finalizeAdaptive(s, hitID, fl)
		return
	}
	m.adaptiveExt.Add(1)
	m.traceExtension(s, hitID, fl, price)
}

// finalizeAdaptive retires an adaptive HIT that stops below its cap —
// budget exhausted or extension rejected — and finalizes it with the
// assignments it already holds. A concurrent cancel may have retired it
// first; then there is nothing left to do.
func (m *Manager) finalizeAdaptive(s *flightStripe, hitID string, fl *inflightHIT) {
	s.mu.Lock()
	if _, live := s.hits[hitID]; !live {
		s.mu.Unlock()
		return
	}
	delete(s.hits, hitID)
	s.mu.Unlock()
	fl.unregister(hitID)
	m.hitRetired(fl)
	m.finalizeInflight(fl)
	m.disposeRetired(hitID)
}

// noteWorkerQuality folds one fit's per-worker accuracies into the
// quality EWMAs and journals them (KindWorkerQuality), so the next
// engine run's priors start from today's evidence. Journaling happens
// outside repMu, like noteWorkerVotes: the marketplace's worker filter
// takes repMu from inside marketplace calls and must never wait on
// persistence.
func (m *Manager) noteWorkerQuality(accs []infer.WorkerAccuracy) {
	j := m.getJournal()
	m.repMu.Lock()
	if m.quality == nil {
		m.quality = make(map[string]*stats.EWMA)
	}
	for _, a := range accs {
		if a.Worker == "" {
			continue
		}
		e := m.quality[a.Worker]
		if e == nil {
			e = stats.NewEWMA(stats.TaskEWMAAlpha)
			m.quality[a.Worker] = e
		}
		e.Observe(a.Accuracy)
	}
	m.repMu.Unlock()
	if j == nil {
		return
	}
	for _, a := range accs {
		if a.Worker == "" {
			continue
		}
		j.Append(store.Record{Kind: store.KindWorkerQuality, Worker: a.Worker, X: a.Accuracy, N: int64(a.Votes)})
	}
}

// RestoreWorkerQuality folds a replayed quality EWMA state into the
// worker's prior evidence (Restore calls it per store worker).
func (m *Manager) RestoreWorkerQuality(worker string, st stats.EWMAState) {
	if worker == "" || st.N <= 0 {
		return
	}
	m.repMu.Lock()
	defer m.repMu.Unlock()
	if m.quality == nil {
		m.quality = make(map[string]*stats.EWMA)
	}
	e := m.quality[worker]
	if e == nil {
		e = stats.NewEWMA(stats.TaskEWMAAlpha)
		m.quality[worker] = e
	}
	e.SetState(st)
}

// InferenceStats aggregates the adaptive redundancy loop's activity for
// the dashboard and the load harness.
type InferenceStats struct {
	// Method is the engine-wide inference method ("majority", "em").
	Method string
	// AdaptiveHITs counts finalized HITs that posted below their cap;
	// Extensions the assignments bought one at a time afterward;
	// ExtendFailures the extensions a backend rejected.
	AdaptiveHITs   int64
	Extensions     int64
	ExtendFailures int64
	// AssignmentsUsed and AssignmentsCap sum those HITs' actual and
	// fixed-redundancy assignment counts: Cap − Used is the assignments
	// the posterior made unnecessary, and SavedCents prices them at
	// each HIT's actual reward.
	AssignmentsUsed int64
	AssignmentsCap  int64
	SavedCents      budget.Cents
}

// InferenceStats reports the adaptive redundancy counters.
func (m *Manager) InferenceStats() InferenceStats {
	return InferenceStats{
		Method:          m.InferenceMethod(),
		AdaptiveHITs:    m.adaptiveHITs.Load(),
		Extensions:      m.adaptiveExt.Load(),
		ExtendFailures:  m.extendFailures.Load(),
		AssignmentsUsed: m.adaptiveAssign.Load(),
		AssignmentsCap:  m.adaptiveCapSum.Load(),
		SavedCents:      budget.Cents(m.inferSaved.Load()),
	}
}
