package taskmgr

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
)

// RankItem is one row shown in an S-way comparison (Order) HIT. Key is
// the sort operator's routing key; Args the rendered values.
type RankItem struct {
	Key  string
	Args []relation.Value
}

// Ranking is one assignment's complete ordering of a comparison HIT:
// Rank[i] is the position (0 = first) the worker gave the HIT's i-th
// item, so Rank is aligned with the items RankBlockIn was given.
type Ranking struct {
	WorkerID string
	Rank     []int
}

// RankBlockIn posts one S-way comparison HIT over exactly these items
// through the Order response and calls done exactly once with every
// assignment's full ranking (fewer than the policy's redundancy when
// assignments failed terminally; none plus an error when the HIT could
// not complete at all).
//
// Unlike Submit, comparison items are never answered from the Task
// Cache or a Task Model: an Order answer is a position *within this
// group* and is meaningless outside it, so caching per-item ranks would
// poison later groups. The group composition is the caller's sorting
// strategy — the manager posts exactly what it is given.
func (m *Manager) RankBlockIn(scope *Scope, def *qlang.TaskDef, items []RankItem, done func(rankings []Ranking, err error)) {
	if len(items) == 0 {
		done(nil, fmt.Errorf("taskmgr: %s: empty comparison group", def.Name))
		return
	}
	// The scope admits the post (beginPost), so a Cancel racing it waits
	// until the HIT is registered or refunded. A failure is reported
	// after the admission ends.
	if cause := scope.beginPost(); cause != nil {
		done(nil, fmt.Errorf("taskmgr: %s: %w", def.Name, cause))
		return
	}
	var failErr error
	defer func() {
		scope.endPost()
		if failErr != nil {
			done(nil, failErr)
		}
	}()
	st := m.state(def.Name, def)
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.scopedPolicyLocked(base, scope)
	st.submitted += int64(len(items))
	st.mu.Unlock()

	price := m.priceFor(def, pol)
	h := &hit.HIT{
		ID:          m.market.NewHITID(),
		Task:        def.Name,
		Type:        def.Type,
		Title:       def.Name,
		Question:    hit.RenderText(def.Text, def.TextArgs, def.Params, nil),
		Response:    rankResponse(def),
		RewardCents: price,
		Assignments: pol.Assignments,
		Items:       make([]hit.Item, len(items)),
	}
	if h.Question == "" {
		h.Question = "Order the shown items."
	}
	for i, it := range items {
		h.Items[i] = hit.Item{Key: it.Key, Args: it.Args}
	}

	cost := budget.Cents(price * int64(pol.Assignments))
	if err := scope.spend(cost); err != nil {
		failErr = fmt.Errorf("taskmgr: %s: %w", def.Name, err)
		return
	}
	if err := m.account.Spend(cost); err != nil {
		scope.refund(cost)
		failErr = fmt.Errorf("taskmgr: %s: %w", def.Name, err)
		return
	}
	st.mu.Lock()
	st.spent += cost
	st.hitsPosted++
	st.questionsAsked += int64(len(items))
	st.mu.Unlock()

	fl := &rankInflight{
		state:    st,
		def:      def,
		scope:    scope,
		cost:     cost,
		items:    h.Items,
		needed:   pol.Assignments,
		postedAt: m.market.Clock().Now(),
		backend:  m.servingBackend(def),
		reward:   price,
		done:     done,
	}
	fl.span = m.traceDirectHIT(scope, h.ID, def.Name, fl.backend, cost)
	fl.span.Annotate("group_size", fmt.Sprintf("%d", len(items)))
	s := m.flights.stripeFor(h.ID)
	s.mu.Lock()
	if s.ranks == nil {
		s.ranks = make(map[string]*rankInflight)
	}
	s.ranks[h.ID] = fl
	s.mu.Unlock()
	if err := m.post(h, m.onRankAssignment); err != nil {
		s.mu.Lock()
		delete(s.ranks, h.ID)
		s.mu.Unlock()
		m.traceDirectGone(fl.span, err.Error())
		m.account.Refund(cost)
		scope.refund(cost)
		failErr = fmt.Errorf("taskmgr: post %s: %v", def.Name, err)
		return
	}
	if cause := scope.registerHIT(h.ID); cause != nil {
		// The scope was canceled while the HIT was being posted; its
		// Cancel waits for this post, so expire the HIT before ending it.
		m.cancelScopeHIT(h.ID, scope, cause)
	}
}

// rankInflight collects the assignments of one comparison HIT.
type rankInflight struct {
	state    *taskState
	def      *qlang.TaskDef
	scope    *Scope
	cost     budget.Cents
	items    []hit.Item // the posted HIT's items, in HIT order
	byWorker []hit.Answers
	received int
	needed   int
	postedAt mturk.VirtualTime
	backend  string // serving backend name, recorded at post time
	reward   int64  // per-assignment price actually charged
	done     func([]Ranking, error)
	span     *obs.Span // HIT trace span (nil = tracing off)
}

func (m *Manager) onRankAssignment(res mturk.AssignmentResult) {
	s := m.flights.stripeFor(res.HITID)
	s.mu.Lock()
	fl, ok := s.ranks[res.HITID]
	if !ok {
		s.mu.Unlock()
		return
	}
	fl.byWorker = append(fl.byWorker, res.Answers)
	fl.received++
	m.traceDirectAssignment(fl.span, fl.def.Name, res.Answers.WorkerID)
	if fl.received < fl.needed {
		s.mu.Unlock()
		return
	}
	delete(s.ranks, res.HITID)
	s.mu.Unlock()
	fl.scope.unregisterHIT(res.HITID)
	m.finalizeRank(fl)
	m.disposeRetired(res.HITID)
}

// finalizeRank turns the collected assignments into per-assignment
// rankings, feeds the comparison agreement estimator (and the journal,
// so warm-started engines seed ChooseRankStrategy with real evidence),
// and resolves the caller. No manager lock is held while it runs.
func (m *Manager) finalizeRank(fl *rankInflight) {
	st := fl.state
	latencyMin := (m.market.Clock().Now() - fl.postedAt).Minutes()
	st.latency.Observe(latencyMin)
	m.traceDirectDone(fl.span, fl.def.Name, fl.backend, latencyMin)
	j := m.getJournal()
	if j != nil {
		j.Append(store.Record{Kind: store.KindLatency, Task: fl.def.Name, X: latencyMin})
	}

	// Every complete ranking's Rank is carved from one backing array; an
	// incomplete one's slots are reused by the next.
	n := len(fl.items)
	rankings := make([]Ranking, 0, len(fl.byWorker))
	backing := make([]int, n*len(fl.byWorker))
	for _, ans := range fl.byWorker {
		rank := backing[:n:n]
		complete := true
		for i := range fl.items {
			v, ok := ans.Values[fl.items[i].Key]
			if !ok {
				complete = false
				break
			}
			rank[i] = int(v.Int())
		}
		if complete {
			rankings = append(rankings, Ranking{WorkerID: ans.WorkerID, Rank: rank})
			backing = backing[n:]
		}
	}

	// Pairwise agreement across assignments: for every item pair, the
	// majority share of assignments placing them in the same relative
	// order. 1.0 = unanimous orderings; 0.5 = coin-flip (heavy
	// inversions). The complement is the inversion rate the optimizer's
	// hybrid window model uses.
	m.noteWorkerRankings(n, rankings)
	if share, pairs := pairAgreement(n, rankings); pairs > 0 {
		st.rankAgreementEstimator().Observe(share)
		st.agreement.Observe(share)
		if j != nil {
			j.Append(store.Record{Kind: store.KindRankPair, Task: fl.def.Name, X: share, N: int64(pairs)})
		}
		m.observeBackend(fl.backend, fl.def.Type, fl.reward, latencyMin, share)
	}
	fl.done(rankings, nil)
}

// pairAgreement computes the mean majority share over all item pairs of
// an n-item comparison HIT, given the complete rankings that arrived.
func pairAgreement(n int, rankings []Ranking) (share float64, pairs int) {
	if len(rankings) == 0 || n < 2 {
		return 0, 0
	}
	total := 0.0
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			before := 0
			for _, r := range rankings {
				if r.Rank[i] < r.Rank[k] {
					before++
				}
			}
			maj := before
			if other := len(rankings) - before; other > maj {
				maj = other
			}
			total += float64(maj) / float64(len(rankings))
			pairs++
		}
	}
	return total / float64(pairs), pairs
}

// RankAgreement reports the task's comparison-agreement estimate (mean
// pairwise majority share across finalized comparison HITs, live or
// replayed from the knowledge store) and how many HITs contributed.
func (m *Manager) RankAgreement(task string) (estimate float64, n int) {
	st := m.state(task, nil)
	st.mu.Lock()
	est := st.rankAgr
	st.mu.Unlock()
	if est == nil {
		return 0, 0
	}
	return est.Value(), est.Count()
}

// rankResponse derives the Order response for a comparison task,
// defaulting when the definition carries something else.
func rankResponse(def *qlang.TaskDef) qlang.Response {
	if def.Response.Kind == qlang.ResponseOrder {
		return def.Response
	}
	return qlang.Response{Kind: qlang.ResponseOrder}
}
