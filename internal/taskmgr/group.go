package taskmgr

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/hit"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/store"
)

// SubmitGroup posts several *different* boolean tasks about (typically)
// one tuple as a single HIT — the paper's operator-grouping optimization:
// "It can also generate HITs from a set of operators (e.g., grouping
// multiple filter operations over the same tuple)." Every request's Done
// fires exactly once. Requests answerable from cache or model are
// resolved without joining the HIT.
func (m *Manager) SubmitGroup(reqs []Request) error {
	if len(reqs) == 0 {
		return nil
	}
	for _, r := range reqs {
		if r.Def == nil || r.Done == nil {
			return fmt.Errorf("taskmgr: group request needs a task definition and Done callback")
		}
		if !isBooleanTask(r.Def) {
			return fmt.Errorf("taskmgr: grouped HITs require boolean tasks; %s is %v", r.Def.Name, r.Def.Type)
		}
	}

	// Grouped requests come from one operator over one tuple, so they
	// share a scope; a HIT still belongs to exactly one scope. The scope
	// admits the post (beginPost), so a Cancel racing it waits until the
	// HIT is registered or refunded. Outcomes are delivered after the
	// admission ends.
	scope := reqs[0].Scope
	if cause := scope.beginPost(); cause != nil {
		for _, r := range reqs {
			r.Done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", r.Def.Name, cause)})
		}
		return nil
	}
	var resolved []resolution
	var failed []Request // requests that reach no HIT, with failErr
	var failErr error
	defer func() {
		scope.endPost()
		for _, r := range resolved {
			r.done(r.out)
		}
		for _, r := range failed {
			r.Done(Outcome{Err: failErr})
		}
	}()

	lead := m.state(reqs[0].Def.Name, reqs[0].Def)
	base := m.basePolicy()
	lead.mu.Lock()
	pol := lead.scopedPolicyLocked(base, scope)
	lead.mu.Unlock()

	var remaining []Request
	var ckeys []cache.Key // per remaining request
	for _, r := range reqs {
		st := m.state(r.Def.Name, r.Def)
		st.mu.Lock()
		st.submitted++
		st.mu.Unlock()
		ckey := cache.NewKey(r.Def.Name, r.Args)
		if pol.UseCache {
			if entry, ok := m.cache.Get(ckey); ok && len(entry.Answers) > 0 {
				st.mu.Lock()
				st.cacheHits++
				st.mu.Unlock()
				out := reduce(r.Def, entry.Answers)
				out.FromCache = true
				st.observeSelectivity(out.Value.Truthy(), r.StatSide)
				resolved = append(resolved, resolution{done: r.Done, out: out})
				continue
			}
		}
		if pol.UseModel {
			if tm, ok := m.models.For(st.name); ok {
				if v, _, ok := tm.TryAnswer(r.Args); ok {
					st.mu.Lock()
					st.modelAnswers++
					st.mu.Unlock()
					st.observeSelectivity(v.Truthy(), r.StatSide)
					resolved = append(resolved, resolution{done: r.Done,
						out: Outcome{Value: v, Answers: []relation.Value{v}, Agreement: 1, FromModel: true}})
					continue
				}
			}
		}
		remaining = append(remaining, r)
		ckeys = append(ckeys, ckey)
	}
	if len(remaining) == 0 {
		return nil
	}

	price := m.priceFor(remaining[0].Def, pol)
	h := &hit.HIT{
		ID:          m.market.NewHITID(),
		Task:        remaining[0].Def.Name,
		Type:        qlang.TaskFilter,
		Title:       "Answer a few questions",
		Question:    fmt.Sprintf("Answer the following %d questions about the data shown.", len(remaining)),
		Response:    qlang.Response{Kind: qlang.ResponseYesNo},
		RewardCents: price,
		Assignments: pol.Assignments,
		Items:       make([]hit.Item, len(remaining)),
		GroupKeys:   make([]string, len(remaining)),
	}
	items := make([]pendingItem, len(remaining))
	for i, r := range remaining {
		key := m.newKey()
		prompt := r.Prompt
		if prompt == "" {
			prompt = hit.RenderText(r.Def.Text, r.Def.TextArgs, r.Def.Params, r.Args)
		}
		h.Items[i] = hit.Item{Key: key, Args: r.Args, Task: r.Def.Name, Prompt: prompt}
		h.GroupKeys[i] = r.Def.Name
		items[i] = pendingItem{key: key, args: r.Args, ckey: ckeys[i], def: r.Def, side: r.StatSide, scope: scope, done: r.Done, span: r.Trace}
	}

	cost := budget.Cents(price * int64(pol.Assignments))
	if err := scope.spend(cost); err != nil {
		failed, failErr = remaining, fmt.Errorf("taskmgr: group: %w", err)
		return nil
	}
	if err := m.account.Spend(cost); err != nil {
		scope.refund(cost)
		failed, failErr = remaining, fmt.Errorf("taskmgr: group: %w", err)
		return nil
	}
	// Attribute cost and counters to each member task evenly enough for
	// the dashboard: the HIT is counted once under the lead task, the
	// questions under their own tasks.
	lead = m.state(remaining[0].Def.Name, remaining[0].Def)
	lead.mu.Lock()
	lead.hitsPosted++
	lead.spent += cost
	lead.mu.Unlock()
	for _, r := range remaining {
		st := m.state(r.Def.Name, r.Def)
		st.mu.Lock()
		st.questionsAsked++
		st.mu.Unlock()
	}

	fl := &inflightHIT{
		hit:      h,
		state:    lead,
		shares:   []hitShare{{scope: scope, items: len(items), cost: cost}},
		cost:     cost,
		items:    items,
		byWorker: make([]hit.Answers, 0, pol.Assignments),
		needed:   pol.Assignments,
		assign:   pol.Assignments,
		postedAt: m.market.Clock().Now(),
		backend:  m.servingBackend(remaining[0].Def),
		group:    true,
	}
	if sp := m.traceDirectHIT(scope, h.ID, h.Task, fl.backend, cost); sp != nil {
		sp.Annotate("grouped", fmt.Sprintf("%d", len(remaining)))
		fl.span = sp
		attributeOps(fl, cost)
	}
	s := m.flights.stripeFor(h.ID)
	s.mu.Lock()
	if s.hits == nil {
		s.hits = make(map[string]*inflightHIT)
	}
	s.hits[h.ID] = fl
	s.mu.Unlock()
	if err := m.post(h, m.onAssignment); err != nil {
		s.mu.Lock()
		delete(s.hits, h.ID)
		s.mu.Unlock()
		m.traceDirectGone(fl.span, err.Error())
		m.account.Refund(cost)
		scope.refund(cost)
		failed, failErr = remaining, err
		return nil
	}
	if cause := scope.registerHIT(h.ID); cause != nil {
		// The scope was canceled while the HIT was being posted; its
		// Cancel waits for this post, so expire the HIT before ending it.
		m.cancelScopeHIT(h.ID, scope, cause)
	}
	return nil
}

// finalizeGroup resolves a grouped HIT in item order, attributing
// selectivity, caching and training per item task rather than per HIT
// task. No manager lock is held while it runs.
func (m *Manager) finalizeGroup(fl *inflightHIT) {
	latencyMin := (m.market.Clock().Now() - fl.postedAt).Minutes()
	fl.state.latency.Observe(latencyMin)
	m.traceHITDone(fl, latencyMin, nil)
	j := m.getJournal()
	if j != nil {
		j.Append(store.Record{Kind: store.KindLatency, Task: fl.hit.Task, X: latencyMin})
	}
	base := m.basePolicy()
	fl.state.mu.Lock()
	pol := fl.state.effectivePolicyLocked(base)
	fl.state.mu.Unlock()

	var resolvedBuf [resolvedInline]resolution
	resolved := resolvedBuf[:0]
	var agreeSum float64
	var agreeN int
	k := len(fl.byWorker)
	cols := byQuestion(fl.byWorker, len(fl.items))
	for i := range fl.items {
		item := &fl.items[i]
		if item.detached {
			continue
		}
		st := m.state(item.def.Name, item.def)
		answers := answersOf(cols, i, k)
		b, conf := stats.MajorityBool(answers)
		out := Outcome{Value: relation.NewBool(b), Answers: answers, Agreement: conf}
		st.agreement.Observe(conf)
		agreeSum += conf
		agreeN++
		st.observeSelectivity(b, item.side)
		m.noteWorkerVotes(fl.byWorker, i, b)
		var enc cache.Answers
		if pol.UseCache {
			enc = cache.EncodeAnswers(answers)
			m.cache.Put(item.ckey, enc)
		}
		if pol.TrainModel {
			if tm, ok := m.models.For(st.name); ok {
				tm.Train(item.args, b)
			}
		}
		if j != nil {
			m.journalItem(j, pol, item.def, item.ckey, item.side, enc, out)
		}
		resolved = append(resolved, resolution{done: item.done, out: out})
	}
	if agreeN > 0 {
		m.observeBackend(fl.backend, fl.hit.Type, fl.hit.RewardCents, latencyMin, agreeSum/float64(agreeN))
	}
	for _, r := range resolved {
		r.done(r.out)
	}
}
