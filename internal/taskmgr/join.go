package taskmgr

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/store"
)

// hitPair is one unresolved cell of a join grid.
type hitPair struct{ l, r JoinItem }

// JoinItem is one row shown in a column of the two-column join interface
// (Figure 3). Key is the operator's routing key; Args the rendered
// values (typically one image).
type JoinItem struct {
	Key  string
	Args []relation.Value
}

// JoinBlock evaluates the cross product of left×right through the
// two-column JoinColumns interface: one HIT answers |left|·|right| pair
// questions at once, the batching that makes human joins affordable.
// done fires exactly once per pair with PairKey(left.Key, right.Key).
//
// Cached pairs are answered for free; if every pair is cached no HIT is
// posted. Otherwise the grid shrinks to the rows/columns still needed
// (workers answer all shown pairs; fresh answers refresh the cache).
func (m *Manager) JoinBlock(def *qlang.TaskDef, left, right []JoinItem, done func(pairKey string, out Outcome)) {
	m.JoinBlockIn(nil, def, left, right, done)
}

// JoinBlockIn is JoinBlock bound to a query scope: a canceled scope
// resolves every pair immediately with the cause, and the posted grid
// HIT is registered for expiry/refund should the scope cancel mid-HIT.
func (m *Manager) JoinBlockIn(scope *Scope, def *qlang.TaskDef, left, right []JoinItem, done func(pairKey string, out Outcome)) {
	if len(left) == 0 || len(right) == 0 {
		return
	}
	// The scope admits the post (beginPost), so a Cancel racing it waits
	// until the grid HIT is registered or refunded. Outcomes are
	// delivered after the admission ends.
	if cause := scope.beginPost(); cause != nil {
		for _, l := range left {
			for _, r := range right {
				done(hit.PairKey(l.Key, r.Key), Outcome{Err: fmt.Errorf("taskmgr: %s: %w", def.Name, cause)})
			}
		}
		return
	}
	type resolution struct {
		key string
		out Outcome
	}
	var resolved []resolution
	var failed []hitPair // pairs that reach no HIT, with failErr
	var failErr error
	defer func() {
		scope.endPost()
		for _, r := range resolved {
			done(r.key, r.out)
		}
		for _, p := range failed {
			done(hit.PairKey(p.l.Key, p.r.Key), Outcome{Err: failErr})
		}
	}()
	st := m.state(def.Name, def)
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.scopedPolicyLocked(base, scope)
	st.submitted += int64(len(left) * len(right))
	st.mu.Unlock()

	pairArgs := func(l, r JoinItem) []relation.Value {
		return append(append([]relation.Value{}, l.Args...), r.Args...)
	}

	// Resolve what we can from cache and model.
	var unresolved []hitPair
	for _, l := range left {
		for _, r := range right {
			key := hit.PairKey(l.Key, r.Key)
			args := pairArgs(l, r)
			if pol.UseCache {
				if entry, ok := m.cache.Get(cache.NewKey(def.Name, args)); ok && len(entry.Answers) > 0 {
					st.mu.Lock()
					st.cacheHits++
					st.mu.Unlock()
					out := reduce(def, entry.Answers)
					out.FromCache = true
					st.selectivity.Observe(out.Value.Truthy())
					resolved = append(resolved, resolution{key: key, out: out})
					continue
				}
			}
			if pol.UseModel {
				if tm, ok := m.models.For(st.name); ok {
					if v, _, ok := tm.TryAnswer(args); ok {
						st.mu.Lock()
						st.modelAnswers++
						st.mu.Unlock()
						st.selectivity.Observe(v.Truthy())
						resolved = append(resolved, resolution{key: key,
							out: Outcome{Value: v, Answers: []relation.Value{v}, Agreement: 1, FromModel: true}})
						continue
					}
				}
			}
			unresolved = append(unresolved, hitPair{l, r})
		}
	}

	if len(unresolved) == 0 {
		return
	}

	// Shrink the grid to only the rows/columns still needed.
	neededLeft := dedupeJoinItems(unresolved, true)
	neededRight := dedupeJoinItems(unresolved, false)
	needPair := make(map[string]bool, len(unresolved))
	for _, p := range unresolved {
		needPair[hit.PairKey(p.l.Key, p.r.Key)] = true
	}

	price := m.priceFor(def, pol)
	h := &hit.HIT{
		ID:          m.market.NewHITID(),
		Task:        def.Name,
		Type:        def.Type,
		Title:       def.Name,
		Question:    hit.RenderText(def.Text, def.TextArgs, def.Params, nil),
		Response:    joinResponse(def),
		RewardCents: price,
		Assignments: pol.Assignments,
	}
	if h.Question == "" {
		h.Question = "Match the items in the left column with the items in the right column."
	}
	for _, l := range neededLeft {
		h.Left = append(h.Left, hit.Item{Key: l.Key, Args: l.Args})
	}
	for _, r := range neededRight {
		h.Right = append(h.Right, hit.Item{Key: r.Key, Args: r.Args})
	}

	cost := budget.Cents(price * int64(pol.Assignments))
	if err := scope.spend(cost); err != nil {
		failed, failErr = unresolved, fmt.Errorf("taskmgr: %s: %w", def.Name, err)
		return
	}
	if err := m.account.Spend(cost); err != nil {
		scope.refund(cost)
		failed, failErr = unresolved, fmt.Errorf("taskmgr: %s: %w", def.Name, err)
		return
	}
	st.mu.Lock()
	st.spent += cost
	st.hitsPosted++
	st.questionsAsked += int64(len(neededLeft) * len(neededRight))
	st.mu.Unlock()

	// order records every grid pair in row-major order, so finalization
	// resolves pairs identically on every run (map iteration would not).
	pairItems := make(map[string]pendingItem)
	order := make([]string, 0, len(neededLeft)*len(neededRight))
	for _, l := range neededLeft {
		for _, r := range neededRight {
			key := hit.PairKey(l.Key, r.Key)
			pairItems[key] = pendingItem{key: key, args: pairArgs(l, r), def: def}
			order = append(order, key)
		}
	}
	fl := &joinInflight{
		state:    st,
		def:      def,
		scope:    scope,
		cost:     cost,
		items:    pairItems,
		order:    order,
		need:     needPair,
		answers:  make(map[string][]relation.Value),
		needed:   pol.Assignments,
		postedAt: m.market.Clock().Now(),
		backend:  m.servingBackend(def),
		reward:   price,
		done:     done,
	}
	fl.span = m.traceDirectHIT(scope, h.ID, def.Name, fl.backend, cost)
	fl.span.Annotate("grid", fmt.Sprintf("%dx%d", len(neededLeft), len(neededRight)))
	s := m.flights.stripeFor(h.ID)
	s.mu.Lock()
	if s.joins == nil {
		s.joins = make(map[string]*joinInflight)
	}
	s.joins[h.ID] = fl
	s.mu.Unlock()
	if err := m.post(h, m.onJoinAssignment); err != nil {
		s.mu.Lock()
		delete(s.joins, h.ID)
		s.mu.Unlock()
		m.traceDirectGone(fl.span, err.Error())
		m.account.Refund(cost)
		scope.refund(cost)
		failed, failErr = unresolved, err
		return
	}
	if cause := scope.registerHIT(h.ID); cause != nil {
		// The scope was canceled while the HIT was being posted; its
		// Cancel waits for this post, so expire the HIT before ending it.
		m.cancelScopeHIT(h.ID, scope, cause)
	}
}

type joinInflight struct {
	state    *taskState
	def      *qlang.TaskDef
	scope    *Scope                 // owning query scope (nil = unscoped)
	cost     budget.Cents           // charged at post time
	items    map[string]pendingItem // every grid pair, keyed by pair key
	order    []string               // pair keys in row-major grid order
	need     map[string]bool        // pairs the caller is waiting on
	answers  map[string][]relation.Value
	byWorker []hit.Answers
	received int
	needed   int
	postedAt mturk.VirtualTime
	backend  string // serving backend name, recorded at post time
	reward   int64  // per-assignment price actually charged
	done     func(string, Outcome)
	span     *obs.Span // HIT trace span (nil = tracing off)
}

func (m *Manager) onJoinAssignment(res mturk.AssignmentResult) {
	s := m.flights.stripeFor(res.HITID)
	s.mu.Lock()
	fl, ok := s.joins[res.HITID]
	if !ok {
		s.mu.Unlock()
		return
	}
	for key, v := range res.Answers.Values {
		fl.answers[key] = append(fl.answers[key], v)
	}
	fl.byWorker = append(fl.byWorker, res.Answers)
	fl.received++
	m.traceDirectAssignment(fl.span, fl.def.Name, res.Answers.WorkerID)
	if fl.received < fl.needed {
		s.mu.Unlock()
		return
	}
	delete(s.joins, res.HITID)
	s.mu.Unlock()
	fl.scope.unregisterHIT(res.HITID)
	m.finalizeJoin(fl)
	m.disposeRetired(res.HITID)
}

// finalizeJoin resolves every pair of a completed (or partially failed)
// join-grid HIT in grid order. No manager lock is held while it runs.
func (m *Manager) finalizeJoin(fl *joinInflight) {
	st := fl.state
	latencyMin := (m.market.Clock().Now() - fl.postedAt).Minutes()
	st.latency.Observe(latencyMin)
	m.traceDirectDone(fl.span, fl.def.Name, fl.backend, latencyMin)
	j := m.getJournal()
	if j != nil {
		j.Append(store.Record{Kind: store.KindLatency, Task: fl.def.Name, X: latencyMin})
	}
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.effectivePolicyLocked(base)
	st.mu.Unlock()

	type resolution struct {
		key string
		out Outcome
	}
	var resolved []resolution
	var agreeSum float64
	var agreeN int
	for _, key := range fl.order {
		item := fl.items[key]
		answers := fl.answers[key]
		b, conf := stats.MajorityBool(answers)
		out := Outcome{Value: relation.NewBool(b), Answers: answers, Agreement: conf}
		st.agreement.Observe(conf)
		agreeSum += conf
		agreeN++
		st.selectivity.Observe(b)
		m.noteWorkerVotes(fl.byWorker, key, b)
		ckey := cache.NewKey(fl.def.Name, item.args)
		if pol.UseCache {
			m.cache.Put(ckey, cache.Entry{Answers: answers})
		}
		if pol.TrainModel {
			if tm, ok := m.models.For(st.name); ok {
				tm.Train(item.args, b)
			}
		}
		if j != nil {
			m.journalItem(j, pol, fl.def, ckey, "", answers, out)
		}
		if fl.need[key] {
			resolved = append(resolved, resolution{key: key, out: out})
		}
	}
	if agreeN > 0 {
		m.observeBackend(fl.backend, fl.def.Type, fl.reward, latencyMin, agreeSum/float64(agreeN))
	}
	for _, r := range resolved {
		fl.done(r.key, r.out)
	}
}

// dedupeJoinItems extracts the distinct left (or right) items of the
// unresolved pairs, preserving first-seen order.
func dedupeJoinItems(pairs []hitPair, left bool) []JoinItem {
	seen := make(map[string]bool)
	var out []JoinItem
	for _, p := range pairs {
		it := p.r
		if left {
			it = p.l
		}
		if !seen[it.Key] {
			seen[it.Key] = true
			out = append(out, it)
		}
	}
	return out
}

// joinResponse derives the JoinColumns response for a join task,
// defaulting labels when the definition used YesNo.
func joinResponse(def *qlang.TaskDef) qlang.Response {
	if def.Response.Kind == qlang.ResponseJoinColumns {
		return def.Response
	}
	return qlang.Response{
		Kind:      qlang.ResponseJoinColumns,
		LeftLabel: "Left", RightLabel: "Right",
	}
}
