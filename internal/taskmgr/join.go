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

// JoinItem is one row shown in a column of the two-column join interface
// (Figure 3). Key names the row in the HIT's form and on the wire; Args
// are the rendered values (typically one image).
type JoinItem struct {
	Key  string
	Args []relation.Value
}

// JoinBlock evaluates the cross product of left×right through the
// two-column JoinColumns interface: one HIT answers |left|·|right| pair
// questions at once, the batching that makes human joins affordable.
// done fires exactly once per (l, r) position, where l indexes left and
// r indexes right.
//
// Cached pairs are answered for free; if every pair is cached no HIT is
// posted. Otherwise the grid shrinks to the rows/columns still needed
// (workers answer all shown pairs; fresh answers refresh the cache).
// Keys name the grid's cells in the HIT's form and on the wire, so they
// must be distinct within each column: a grid that would post a
// repeated key resolves each of its uncached pairs with an error, and
// posts and charges nothing.
func (m *Manager) JoinBlock(def *qlang.TaskDef, left, right []JoinItem, done func(l, r int, out Outcome)) {
	m.JoinBlockIn(nil, def, left, right, done)
}

// JoinBlockIn is JoinBlock bound to a query scope: a canceled scope
// resolves every pair immediately with the cause, and the posted grid
// HIT is registered for expiry/refund should the scope cancel mid-HIT.
func (m *Manager) JoinBlockIn(scope *Scope, def *qlang.TaskDef, left, right []JoinItem, done func(l, r int, out Outcome)) {
	if len(left) == 0 || len(right) == 0 {
		return
	}
	// The scope admits the post (beginPost), so a Cancel racing it waits
	// until the grid HIT is registered or refunded. Outcomes are
	// delivered after the admission ends.
	if cause := scope.beginPost(); cause != nil {
		err := fmt.Errorf("taskmgr: %s: %w", def.Name, cause)
		for l := range left {
			for r := range right {
				done(l, r, Outcome{Err: err})
			}
		}
		return
	}
	var resolved []joinOutcome
	var grid []joinCell
	var failErr error // fails every unresolved cell of grid
	defer func() {
		scope.endPost()
		for _, res := range resolved {
			done(res.l, res.r, res.out)
		}
		if failErr != nil {
			for i := range grid {
				if c := &grid[i]; c.wait {
					done(c.l, c.r, Outcome{Err: failErr})
				}
			}
		}
	}()
	st := m.state(def.Name, def)
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.scopedPolicyLocked(base, scope)
	st.submitted += int64(len(left) * len(right))
	st.mu.Unlock()

	// Walk left×right once, row-major, resolving what we can from cache
	// and model. The cells that remain are the ones the caller waits on.
	grid = newJoinGrid(def.Name, left, right)
	unresolved := 0
	for i := range grid {
		c := &grid[i]
		if pol.UseCache {
			if entry, ok := m.cache.Get(c.ckey); ok && len(entry.Answers) > 0 {
				st.mu.Lock()
				st.cacheHits++
				st.mu.Unlock()
				out := reduce(def, entry.Answers)
				out.FromCache = true
				st.selectivity.Observe(out.Value.Truthy())
				resolved = append(resolved, joinOutcome{l: c.l, r: c.r, out: out})
				continue
			}
		}
		if pol.UseModel {
			if tm, ok := m.models.For(st.name); ok {
				if v, _, ok := tm.TryAnswer(c.args); ok {
					st.mu.Lock()
					st.modelAnswers++
					st.mu.Unlock()
					st.selectivity.Observe(v.Truthy())
					resolved = append(resolved, joinOutcome{l: c.l, r: c.r,
						out: Outcome{Value: v, Answers: []relation.Value{v}, Agreement: 1, FromModel: true}})
					continue
				}
			}
		}
		c.wait = true
		unresolved++
	}
	if unresolved == 0 {
		return
	}

	rows, cols := shrinkJoinGrid(grid, len(left), len(right))
	if key, ok := repeatedKey(left, rows); ok {
		failErr = fmt.Errorf("taskmgr: %s: join grid repeats left key %q", def.Name, key)
		return
	}
	if key, ok := repeatedKey(right, cols); ok {
		failErr = fmt.Errorf("taskmgr: %s: join grid repeats right key %q", def.Name, key)
		return
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
		Left:        make([]hit.Item, len(rows)),
		Right:       make([]hit.Item, len(cols)),
	}
	if h.Question == "" {
		h.Question = "Match the items in the left column with the items in the right column."
	}
	for i, l := range rows {
		h.Left[i] = hit.Item{Key: left[l].Key, Args: left[l].Args}
	}
	for j, r := range cols {
		h.Right[j] = hit.Item{Key: right[r].Key, Args: right[r].Args}
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
	st.questionsAsked += int64(len(rows) * len(cols))
	st.mu.Unlock()

	// The HIT's cells, row-major over h.Left×h.Right: cell i is the
	// HIT's question i.
	cells := make([]joinCell, 0, len(rows)*len(cols))
	for _, l := range rows {
		for _, r := range cols {
			cells = append(cells, grid[l*len(right)+r])
		}
	}
	fl := &joinInflight{
		state:    st,
		def:      def,
		scope:    scope,
		cost:     cost,
		cells:    cells,
		byWorker: make([]hit.Answers, 0, pol.Assignments),
		needed:   pol.Assignments,
		postedAt: m.market.Clock().Now(),
		backend:  m.servingBackend(def),
		reward:   price,
		done:     done,
	}
	fl.span = m.traceDirectHIT(scope, h.ID, def.Name, fl.backend, cost)
	fl.span.Annotate("grid", fmt.Sprintf("%dx%d", len(rows), len(cols)))
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
		failErr = err
		return
	}
	if cause := scope.registerHIT(h.ID); cause != nil {
		// The scope was canceled while the HIT was being posted; its
		// Cancel waits for this post, so expire the HIT before ending it.
		m.cancelScopeHIT(h.ID, scope, cause)
	}
}

// joinCell is one cell of a join grid, from the walk that asks to the
// finalize that answers.
type joinCell struct {
	args []relation.Value // left's arguments, then right's
	ckey cache.Key        // task cache key of args, encoded once
	l, r int              // the caller's left and right positions
	wait bool             // the caller waits on this cell's outcome
}

// joinOutcome is one cell's outcome, held until it may be delivered.
type joinOutcome struct {
	l, r int
	out  Outcome
}

// newJoinGrid lays out left×right row-major, carving every cell's
// arguments from one backing array and encoding each cache key once.
func newJoinGrid(task string, left, right []JoinItem) []joinCell {
	var leftArgs, rightArgs int
	for _, it := range left {
		leftArgs += len(it.Args)
	}
	for _, it := range right {
		rightArgs += len(it.Args)
	}
	backing := make([]relation.Value, leftArgs*len(right)+rightArgs*len(left))
	grid := make([]joinCell, 0, len(left)*len(right))
	for l := range left {
		for r := range right {
			n := len(left[l].Args) + len(right[r].Args)
			args := append(append(backing[:0:n], left[l].Args...), right[r].Args...)
			backing = backing[n:]
			grid = append(grid, joinCell{args: args, ckey: cache.NewKey(task, args), l: l, r: r})
		}
	}
	return grid
}

// shrinkJoinGrid picks the rows and columns of the grid a HIT must show
// to cover every waited-on cell: rows are the needed left positions,
// ascending; columns the needed right positions in the order a
// row-major scan of waited-on cells first meets them, which is not
// always ascending.
func shrinkJoinGrid(grid []joinCell, nLeft, nRight int) (rows, cols []int) {
	rows = make([]int, 0, nLeft)
	cols = make([]int, 0, nRight)
	seen := make([]bool, nRight)
	for l := 0; l < nLeft; l++ {
		needed := false
		for r := 0; r < nRight; r++ {
			if !grid[l*nRight+r].wait {
				continue
			}
			needed = true
			if !seen[r] {
				seen[r] = true
				cols = append(cols, r)
			}
		}
		if needed {
			rows = append(rows, l)
		}
	}
	return rows, cols
}

// repeatedKey returns a key shared by two of the items at positions at.
func repeatedKey(items []JoinItem, at []int) (string, bool) {
	for i, a := range at {
		for _, b := range at[:i] {
			if items[a].Key == items[b].Key {
				return items[a].Key, true
			}
		}
	}
	return "", false
}

// joinInflight collects the assignments of one join-grid HIT. Each cell
// of the grid, and its answers, sit at the cell's position: cells are
// row-major over the HIT's Left×Right columns, so cells[i] is question
// i of every sheet in byWorker (arrival order), the only copy of its
// votes until finalize.
type joinInflight struct {
	state    *taskState
	def      *qlang.TaskDef
	scope    *Scope       // owning query scope (nil = unscoped)
	cost     budget.Cents // charged at post time
	cells    []joinCell
	byWorker []hit.Answers
	received int
	needed   int
	postedAt mturk.VirtualTime
	backend  string // serving backend name, recorded at post time
	reward   int64  // per-assignment price actually charged
	done     func(l, r int, out Outcome)
	span     *obs.Span // HIT trace span (nil = tracing off)
}

// fail resolves every waited-on cell with err, in grid order.
func (fl *joinInflight) fail(err error) {
	for i := range fl.cells {
		if c := &fl.cells[i]; c.wait {
			fl.done(c.l, c.r, Outcome{Err: err})
		}
	}
}

func (m *Manager) onJoinAssignment(res mturk.AssignmentResult) {
	s := m.flights.stripeFor(res.HITID)
	s.mu.Lock()
	fl, ok := s.joins[res.HITID]
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
	delete(s.joins, res.HITID)
	s.mu.Unlock()
	fl.scope.unregisterHIT(res.HITID)
	m.finalizeJoin(fl)
	m.disposeRetired(res.HITID)
}

// finalizeJoin resolves every cell of a completed (or partially failed)
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

	waiting := 0
	for i := range fl.cells {
		if fl.cells[i].wait {
			waiting++
		}
	}
	resolved := make([]joinOutcome, 0, waiting)
	var agreeSum float64
	k := len(fl.byWorker)
	cols := byQuestion(fl.byWorker, len(fl.cells))
	for i := range fl.cells {
		c := &fl.cells[i]
		answers := answersOf(cols, i, k)
		b, conf := stats.MajorityBool(answers)
		out := Outcome{Value: relation.NewBool(b), Answers: answers, Agreement: conf}
		st.agreement.Observe(conf)
		agreeSum += conf
		st.selectivity.Observe(b)
		m.noteWorkerVotes(fl.byWorker, i, b)
		var enc cache.Answers
		if pol.UseCache {
			enc = cache.EncodeAnswers(answers)
			m.cache.Put(c.ckey, enc)
		}
		if pol.TrainModel {
			if tm, ok := m.models.For(st.name); ok {
				tm.Train(c.args, b)
			}
		}
		if j != nil {
			m.journalItem(j, pol, fl.def, c.ckey, "", enc, out)
		}
		if c.wait {
			resolved = append(resolved, joinOutcome{l: c.l, r: c.r, out: out})
		}
	}
	if len(fl.cells) > 0 {
		m.observeBackend(fl.backend, fl.def.Type, fl.reward, latencyMin, agreeSum/float64(len(fl.cells)))
	}
	for _, res := range resolved {
		fl.done(res.l, res.r, res.out)
	}
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
