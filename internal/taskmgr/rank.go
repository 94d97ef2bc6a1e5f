package taskmgr

import (
	"fmt"

	"repro/internal/hit"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
)

// Ranking is one assignment's complete ordering of a comparison HIT:
// Rank[i] is the position (0 = first) the worker gave the HIT's i-th
// item, so Rank is aligned with the items RankBlockIn was given.
type Ranking struct {
	WorkerID string
	Rank     []int
}

// RankBlockIn posts one S-way comparison HIT over exactly these items,
// each one row's arguments (the values shown for it), through the Order
// response and calls done exactly once with every assignment's full
// ranking (fewer than the policy's redundancy when assignments failed
// terminally; none plus an error when the HIT could not complete at
// all). The HIT lives through the same lifecycle as every other HIT, at
// the policy's fixed redundancy: answer inference does not apply to
// rankings.
//
// Unlike Submit, comparison items are never answered from the Task
// Cache or a Task Model: an Order answer is a position *within this
// group* and is meaningless outside it, so caching per-item ranks would
// poison later groups. The group composition is the caller's sorting
// strategy — the manager posts exactly what it is given.
func (m *Manager) RankBlockIn(scope *Scope, def *qlang.TaskDef, items [][]relation.Value, done func(rankings []Ranking, err error)) {
	if len(items) == 0 {
		done(nil, fmt.Errorf("taskmgr: %s: empty comparison group", def.Name))
		return
	}
	if cause := scope.Err(); cause != nil {
		done(nil, fmt.Errorf("taskmgr: %s: %w", def.Name, cause))
		return
	}
	st := m.state(def.Name, def)
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.scopedPolicyLocked(base, scope)
	st.mu.Unlock()
	m.count(st, &st.submitted, obs.MetricSubmissions, int64(len(items)))

	fl := m.openHIT(kindRank, def, st, pol, scope, nil)
	h := &hit.HIT{
		ID:          m.market.NewHITID(),
		Task:        def.Name,
		Type:        def.Type,
		Title:       def.Name,
		Question:    hit.RenderText(def.Text, def.TextArgs, def.Params, nil),
		Response:    rankResponse(def),
		Assignments: fl.assign,
		Items:       make([]hit.Item, len(items)),
	}
	if h.Question == "" {
		h.Question = "Order the shown items."
	}
	for i, args := range items {
		h.Items[i] = hit.Item{Args: args}
	}
	fl.hit, fl.rankDone = h, done
	m.enqueue(fl, pol, nil)
	m.dispatch()
}

// finalizeRank is a comparison HIT's resolve step: it turns the
// collected sheets into per-assignment rankings, feeds the comparison
// agreement estimator (and the journal, so warm-started engines seed
// ChooseRankStrategy with real evidence), and hands the rankings to the
// caller. No manager lock is held while it runs.
func (m *Manager) finalizeRank(fl *inflightHIT, j Journal, latencyMin float64) {
	// Every ranking's Rank is carved from one backing array: Rank[i] is
	// question i of the assignment's sheet.
	n := len(fl.hit.Items)
	rankings := make([]Ranking, len(fl.byWorker))
	backing := make([]int, n*len(fl.byWorker))
	for w, ans := range fl.byWorker {
		rank := backing[w*n : (w+1)*n : (w+1)*n]
		for i, v := range ans.Values[:n] {
			rank[i] = int(v.Int())
		}
		rankings[w] = Ranking{WorkerID: ans.WorkerID, Rank: rank}
	}

	// Pairwise agreement across assignments: for every item pair, the
	// majority share of assignments placing them in the same relative
	// order. 1.0 = unanimous orderings; 0.5 = coin-flip (heavy
	// inversions). The complement is the inversion rate the optimizer's
	// hybrid window model uses.
	m.noteWorkerRankings(n, rankings)
	if share, pairs := pairAgreement(n, rankings); pairs > 0 {
		fl.state.rankAgreementEstimator().Observe(share)
		fl.state.agreement.Observe(share)
		if j != nil {
			j.Append(store.Record{Kind: store.KindRankPair, Task: fl.hit.Task, X: share, N: int64(pairs)})
		}
		m.observeBackend(fl.backend, fl.hit.Type, fl.hit.RewardCents, latencyMin, share)
	}
	fl.rankDone(rankings, nil)
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
