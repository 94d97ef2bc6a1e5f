package taskmgr

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hit"
	"repro/internal/qlang"
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
	// share a scope; a HIT still belongs to exactly one scope.
	scope := reqs[0].Scope
	if cause := scope.Err(); cause != nil {
		for _, r := range reqs {
			r.Done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", r.Def.Name, cause)})
		}
		return nil
	}
	lead := m.state(reqs[0].Def.Name, reqs[0].Def)
	base := m.basePolicy()
	lead.mu.Lock()
	pol := lead.scopedPolicyLocked(base, scope)
	lead.mu.Unlock()

	var resolved []resolution // free answers, by request
	items := make([]pendingItem, 0, len(reqs))
	for i, r := range reqs {
		st := m.state(r.Def.Name, r.Def)
		st.mu.Lock()
		st.submitted++
		st.mu.Unlock()
		ckey := cache.NewKey(r.Def.Name, r.Args)
		if out, ok := m.answerFree(st, pol, r.Def, r.Args, ckey, r.StatSide, nil); ok {
			resolved = append(resolved, resolution{q: i, out: out})
			continue
		}
		items = append(items, pendingItem{args: r.Args, ckey: ckey, def: r.Def,
			side: r.StatSide, scope: scope, done: r.Done, span: r.Trace})
	}
	var free func()
	if len(resolved) > 0 {
		free = func() {
			for _, r := range resolved {
				reqs[r.q].Done(r.out)
			}
		}
	}
	if len(items) == 0 {
		free()
		return nil
	}

	first := items[0].def
	fl := m.openHIT(kindGroup, first, m.state(first.Name, first), pol, scope, items)
	h := &hit.HIT{
		ID:          m.market.NewHITID(),
		Task:        first.Name,
		Type:        qlang.TaskFilter,
		Title:       "Answer a few questions",
		Question:    fmt.Sprintf("Answer the following %d questions about the data shown.", len(items)),
		Response:    qlang.Response{Kind: qlang.ResponseYesNo},
		Assignments: fl.assign,
		Items:       make([]hit.Item, len(items)),
		GroupKeys:   make([]string, len(items)),
	}
	for i := range items {
		it := &items[i]
		it.key = m.newKey()
		prompt := hit.RenderText(it.def.Text, it.def.TextArgs, it.def.Params, it.args)
		h.Items[i] = hit.Item{Key: it.key, Args: it.args, Task: it.def.Name, Prompt: prompt}
		h.GroupKeys[i] = it.def.Name
	}
	fl.hit = h
	m.enqueue(fl, pol, free)
	m.dispatch()
	return nil
}
