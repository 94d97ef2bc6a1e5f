package exec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/quiesce"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// runFilter evaluates local conjuncts immediately and human conjuncts as
// a short-circuiting cascade (or one grouped HIT when GroupFilters is
// set), through one record per tuple. Tuples flow out as soon as their
// last predicate passes.
func (q *run) runFilter(op *operator, in Iterator) {
	defer op.finish()
	s := op.step
	human := s.human
	grouped := q.cfg.GroupFilters && s.grouped != nil // all human conjuncts in one HIT per tuple

	wg := quiesce.WaitGroup{Gate: q.gate}
	var sem *quiesce.Sem
	if q.cfg.FilterWindow > 0 && !q.cfg.GroupFilters {
		sem = quiesce.NewSem(q.gate, q.cfg.FilterWindow)
	}
	ask := func(r *tupleCalls) {
		c := &human[r.order[r.k]]
		r.resolve(c.b, c.assignments, false)
	}
	// settle judges the tuple once the calls in flight have answered:
	// grouped, on every conjunct; in the cascade, on the conjunct at k,
	// asking the next one while the tuple passes.
	settle := func(r *tupleCalls, err error) {
		pass := err == nil
		if grouped {
			for i := 0; pass && i < len(human); i++ {
				pass, err = r.holds(human[i].inGroup)
			}
		} else if pass {
			pass, err = r.holds(human[r.order[r.k]].e)
		}
		if err != nil {
			q.reportError(err)
		}
		if pass && !grouped && r.k+1 < len(r.order) {
			r.k++
			ask(r)
			return
		}
		if pass {
			op.push(r.t)
		}
		if sem != nil {
			sem.Release()
		}
		wg.Done()
	}

	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		if !q.passesAll(s.exprs, t) {
			continue
		}
		wg.Add(1)
		r := q.newCalls(op, t, settle)
		if grouped {
			// The grouped binding binds every conjunct's calls jointly,
			// so a call two conjuncts share is asked once.
			r.resolve(s.grouped, 0, true)
			continue
		}
		if sem != nil {
			sem.Acquire()
			// The window is open: flush whatever the previous tuples
			// queued so their results (and selectivity updates) arrive
			// while later tuples wait here.
			q.flushTasks(s.tasks)
		}
		// Order is chosen when the tuple enters its cascade, so the
		// optimizer's live selectivity estimates steer later tuples.
		r.order = q.filterOrder(s)
		ask(r)
	}
	q.flushTasks(s.tasks)
	wg.Wait()
}

// filterOrder is the cascade order of a tuple entering it: the
// optimizer's, or query order.
func (q *run) filterOrder(s *step) []int {
	if q.cfg.FilterOrder != nil {
		if order := q.cfg.FilterOrder(s.humanSrc); len(order) == len(s.human) {
			return order
		}
	}
	return s.order
}

// runProject resolves each tuple's human calls, then computes outputs.
func (q *run) runProject(op *operator, v *plan.Project, in Iterator) {
	defer op.finish()
	s := op.step
	wg := quiesce.WaitGroup{Gate: q.gate}
	emit := func(r *tupleCalls, err error) {
		defer wg.Done()
		if err != nil {
			q.reportError(err)
			return
		}
		vals := make([]relation.Value, 0, v.Schema().Len())
		for _, e := range s.exprs {
			if e == nil { // *
				vals = append(vals, r.t.Values...)
				continue
			}
			val, err := e.eval(r.t, q.params, r.vals)
			if err != nil {
				q.reportError(err)
				return
			}
			vals = append(vals, val)
		}
		op.push(relation.Tuple{Schema: v.Schema(), Values: vals})
	}
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		wg.Add(1)
		q.newCalls(op, t, emit).resolve(s.calls, 0, false)
	}
	q.flushTasks(s.tasks)
	wg.Wait()
}

// joinSide is one buffered input of a join with its evaluated argument.
type joinSide struct {
	tuple relation.Tuple
	arg   relation.Value
}

// runJoin drives the human join interface: both inputs drain
// concurrently (each side's iterator chain runs in its drain
// goroutine), then block pairs walk through the join HITs. Call-free
// joins never reach here — they fuse into localJoinIter, which streams
// the probe side.
func (q *run) runJoin(op *operator, v *plan.Join, left, right Iterator) {
	defer op.finish()
	var lbuf, rbuf []relation.Tuple
	dw := quiesce.WaitGroup{Gate: q.gate}
	dw.Add(2)
	q.gate.Go(func() {
		defer dw.Done()
		for {
			t, ok := left.Next()
			if !ok {
				return
			}
			atomic.AddInt64(&op.in, 1)
			lbuf = append(lbuf, t)
		}
	})
	q.gate.Go(func() {
		defer dw.Done()
		for {
			t, ok := right.Next()
			if !ok {
				return
			}
			atomic.AddInt64(&op.in, 1)
			rbuf = append(rbuf, t)
		}
	})
	dw.Wait()
	q.noteResident(int64(len(lbuf) + len(rbuf)))

	ls := q.evalSide(lbuf, op.step.args[0])
	rs := q.evalSide(rbuf, op.step.args[1])
	if q.cfg.JoinPairwise {
		q.joinPairwise(op, v, ls, rs)
		return
	}
	q.joinTwoColumn(op, v, ls, rs)
}

func (q *run) evalSide(buf []relation.Tuple, arg *expr) []joinSide {
	out := make([]joinSide, 0, len(buf))
	for _, t := range buf {
		val, err := arg.eval(t, q.params, nil)
		if err != nil {
			q.reportError(err)
			continue
		}
		out = append(out, joinSide{tuple: t, arg: val})
	}
	return out
}

func concatValues(l, r relation.Tuple) []relation.Value {
	vals := make([]relation.Value, 0, len(l.Values)+len(r.Values))
	vals = append(vals, l.Values...)
	return append(vals, r.Values...)
}

func (q *run) passesAll(conjuncts []*expr, t relation.Tuple) bool {
	for _, c := range conjuncts {
		pass, err := c.eval(t, q.params, nil)
		if err != nil {
			q.reportError(err)
			return false
		}
		if !pass.Truthy() {
			return false
		}
	}
	return true
}

// joinTwoColumn walks L×R blocks through the JoinColumns interface
// (Figure 3): each block pair is one HIT answering blockL×blockR pairs.
// Each side's items are built once and sliced into blocks; the task
// manager reports each pair by its positions within the block.
func (q *run) joinTwoColumn(op *operator, v *plan.Join, ls, rs []joinSide) {
	lb, rb := q.cfg.JoinLeftBlock, q.cfg.JoinRightBlock
	leftItems := joinItems(ls)
	rightItems := joinItems(rs)
	wg := quiesce.WaitGroup{Gate: q.gate}
	for li := 0; li < len(ls); li += lb {
		if q.Canceled() {
			break
		}
		lhi := min(li+lb, len(ls))
		for ri := 0; ri < len(rs); ri += rb {
			rhi := min(ri+rb, len(rs))
			wg.Add((lhi - li) * (rhi - ri))
			q.cfg.Mgr.JoinBlockIn(q.cfg.Scope, v.HumanTask, leftItems[li:lhi], rightItems[ri:rhi], func(l, r int, out taskmgr.Outcome) {
				defer wg.Done()
				if out.Err != nil {
					q.reportError(out.Err)
					return
				}
				if !out.Value.Truthy() {
					return
				}
				joined := relation.Tuple{Schema: v.Schema(), Values: concatValues(ls[li+l].tuple, rs[ri+r].tuple)}
				if q.passesAll(op.step.exprs, joined) {
					op.push(joined)
				}
			})
		}
	}
	wg.Wait()
}

// joinItems renders one join input as grid rows by input position,
// every row's single argument carved from one array.
func joinItems(sides []joinSide) [][]relation.Value {
	items := make([][]relation.Value, len(sides))
	args := make([]relation.Value, len(sides))
	for i, s := range sides {
		args[i] = s.arg
		items[i] = args[i : i+1 : i+1]
	}
	return items
}

// joinPairwise submits one boolean question per pair — the naive join
// interface the two-column layout is compared against.
func (q *run) joinPairwise(op *operator, v *plan.Join, ls, rs []joinSide) {
	wg := quiesce.WaitGroup{Gate: q.gate}
	for _, l := range ls {
		if q.Canceled() {
			break
		}
		for _, r := range rs {
			l, r := l, r
			wg.Add(1)
			q.cfg.Mgr.Submit(taskmgr.Request{
				Def:   v.HumanTask,
				Args:  []relation.Value{l.arg, r.arg},
				Scope: q.cfg.Scope,
				Trace: op.span,
				Done: func(out taskmgr.Outcome) {
					defer wg.Done()
					if out.Err != nil {
						q.reportError(out.Err)
						return
					}
					if !out.Value.Truthy() {
						return
					}
					joined := relation.Tuple{Schema: v.Schema(), Values: concatValues(l.tuple, r.tuple)}
					if q.passesAll(op.step.exprs, joined) {
						op.push(joined)
					}
				},
			})
		}
	}
	q.cfg.Mgr.FlushScope(v.HumanTask.Name, q.cfg.Scope)
	wg.Wait()
}

// runPreFilter runs a join's feature filter over one input with
// single-assignment POSSIBLY-style semantics: each tuple's filter task
// is submitted with redundancy 1 (the join predicate re-checks the
// surviving pairs anyway), survivors flow to the join, rejects are
// dropped. The input is pulled in blocks; between blocks the stage
// waits for outcomes — so live selectivity accumulates in the
// Statistics Manager — and re-asks Config.PreFilterKeep whether
// filtering the remaining (uncached, counted via counter-free cache
// probes) tuples is still predicted to pay. A "no" re-plans the rest of
// the input as an unfiltered pass-through that streams tuple-by-tuple,
// never buffering. While filtering, the block size starts at
// Config.PreFilterBlock and doubles after every block that submitted
// fresh (uncached) work, up to Config.PreFilterMaxBlock: early blocks
// probe cheaply while the selectivity estimate is noisy, later blocks
// amortize the per-block outcome barrier once confidence has grown.
//
// A tuple whose filter errors passes through unfiltered: the pre-filter
// is an optimization, and correctness stays with the join predicate.
func (q *run) runPreFilter(op *operator, v *plan.PreFilter, in Iterator) {
	defer op.finish()
	c := q.cfg.Mgr.Cache()
	block := q.cfg.PreFilterBlock
	maxBlock := q.cfg.PreFilterMaxBlock
	if maxBlock <= 0 {
		maxBlock = 8 * q.cfg.PreFilterBlock
	}
	estimate := plan.EstimateRows(v.Input)
	pulled := 0
	first := true
	rows := make([]relation.Tuple, 0, block)
	args := make([]relation.Value, 0, block)
	argErr := make([]error, 0, block)
	for {
		if q.Canceled() {
			// The rest of the input is moot: the join downstream is dead
			// too, so neither fail-open pass-through nor more filter HITs
			// would buy anything.
			return
		}
		// Pull one block, evaluating each tuple's filter argument once
		// and probing the task cache (a cheap Contains probe, no
		// counters, no copies) to count the uncached work it holds.
		rows, args, argErr = rows[:0], args[:0], argErr[:0]
		uncached := 0
		for len(rows) < block {
			t, ok := in.Next()
			if !ok {
				break
			}
			atomic.AddInt64(&op.in, 1)
			rows = append(rows, t)
			a, err := op.step.exprs[0].eval(t, q.params, nil)
			args, argErr = append(args, a), append(argErr, err)
			if err == nil && !c.Contains(cache.NewKey(v.Task.Name, []relation.Value{a})) {
				uncached++
			}
		}
		if len(rows) == 0 {
			return
		}
		pulled += len(rows)
		// Between blocks, re-ask whether filtering the remaining work is
		// still predicted to pay: this block's uncached tuples plus the
		// not-yet-pulled remainder of the input (estimated, and
		// conservatively assumed uncached — cached answers are free, so
		// overestimating remaining work only keeps a profitable filter
		// running).
		if !first && q.cfg.PreFilterKeep != nil {
			remaining := uncached
			if rest := estimate - pulled; rest > 0 {
				remaining += rest
			}
			if !q.cfg.PreFilterKeep(v, remaining) {
				// Re-plan: pass this block and the rest of the input
				// through unfiltered, tuple by tuple — the declined path
				// streams, it does not buffer.
				for _, t := range rows {
					op.push(t)
				}
				atomic.AddInt64(&op.decided, int64(len(rows)))
				for {
					t, ok := in.Next()
					if !ok {
						return
					}
					atomic.AddInt64(&op.in, 1)
					op.push(t)
					atomic.AddInt64(&op.decided, 1)
				}
			}
		}
		first = false
		q.preFilterBlock(op, v, rows, args, argErr)
		atomic.AddInt64(&op.decided, int64(len(rows)))
		// Cost-aware schedule: each filtered block that bought fresh
		// evidence sharpens the selectivity estimate, so later re-checks
		// need less frequent confirmation — grow the block geometrically
		// up to the cap. All-cached blocks buy no evidence and keep the
		// current cadence.
		if uncached > 0 && block < maxBlock {
			block *= 2
			if block > maxBlock {
				block = maxBlock
			}
		}
	}
}

// preFilterBlock submits one block's filter questions and waits for
// their outcomes, pushing survivors downstream in input order.
func (q *run) preFilterBlock(op *operator, v *plan.PreFilter, rows []relation.Tuple,
	args []relation.Value, argErr []error) {
	keep := make([]bool, len(rows))
	// Tag each observation with the join side this stage protects, so
	// the Statistics Manager learns per-side selectivity and the
	// mid-query re-check judges this side by its own evidence.
	side := taskmgr.SideRight
	if v.Left {
		side = taskmgr.SideLeft
	}
	wg := quiesce.WaitGroup{Gate: q.gate}
	for i := range rows {
		if argErr[i] != nil {
			q.reportError(argErr[i])
			keep[i] = true // fail open
			continue
		}
		i := i
		wg.Add(1)
		q.cfg.Mgr.Submit(taskmgr.Request{
			Def:         v.Task,
			Args:        []relation.Value{args[i]},
			Assignments: 1,
			StatSide:    side,
			Scope:       q.cfg.Scope,
			Trace:       op.span,
			Done: func(out taskmgr.Outcome) {
				defer wg.Done()
				if out.Err != nil {
					q.reportError(out.Err)
					keep[i] = true // fail open
					return
				}
				keep[i] = out.Value.Truthy()
			},
		})
	}
	q.cfg.Mgr.FlushScope(v.Task.Name, q.cfg.Scope)
	wg.Wait()
	for i, t := range rows {
		if keep[i] {
			op.push(t)
		}
	}
}

// runRank is the human-powered sort: it buffers the input (ORDER BY is
// a barrier — no tuple can be emitted before the last input tuple has
// been compared or rated; see doc.go), evaluates the ranking task's
// arguments per tuple, hands the set to the rank subsystem under the
// strategy the optimizer chose (compare / rate / hybrid, with top-k
// pushdown), and streams the ordered rows out as soon as the order is
// final, releasing buffered tuples as they are emitted.
//
// Tuples whose arguments fail to evaluate are reported, excluded from
// ranking, and emitted where a NULL sort key would land — before the
// ranked rows ascending, after them descending — in input order.
func (q *run) runRank(op *operator, v *plan.Rank, in Iterator) {
	defer op.finish()
	var rows []relation.Tuple
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		rows = append(rows, t)
	}
	q.noteResident(int64(len(rows)))
	if q.cfg.Mgr == nil {
		q.reportError(fmt.Errorf("exec: human sort without task manager"))
		for i := range rows {
			op.push(rows[i])
		}
		return
	}

	items := make([][]relation.Value, 0, len(rows))
	itemRow := make([]int, 0, len(rows)) // item index → row index
	var failed []int
	for i, t := range rows {
		args := make([]relation.Value, len(op.step.exprs))
		ok := true
		for j, e := range op.step.exprs {
			val, err := e.eval(t, q.params, nil)
			if err != nil {
				q.reportError(err)
				ok = false
				break
			}
			args[j] = val
		}
		if !ok {
			failed = append(failed, i)
			continue
		}
		items = append(items, args)
		itemRow = append(itemRow, i)
	}

	decide := q.cfg.RankStrategy
	if decide == nil {
		decide = defaultRankStrategy
	}
	d := decide(v, len(items))

	done := quiesce.WaitGroup{Gate: q.gate}
	done.Add(1)
	var perm []int
	var rst rank.Stats
	rank.Run(items, rateSurface(v), v.Compare, d, rank.Config{
		Mgr:     q.cfg.Mgr,
		Scope:   q.cfg.Scope,
		OnError: q.reportError,
	}, func(p []int, st rank.Stats) {
		perm, rst = p, st
		done.Done()
	})
	done.Wait()
	var compare string
	if v.Compare != nil {
		compare = v.Compare.Name
	}
	q.noteRankStat(op.step.id, RankStat{
		Task:        v.Task.Name,
		CompareTask: compare,
		Strategy:    string(rst.Strategy),
		Items:       rst.Items,
		GroupSize:   d.GroupSize,
		CompareHITs: rst.CompareHITs,
		RateAsks:    rst.RateAsks,
		Windows:     rst.Windows,
		Refined:     rst.Refined,
	})

	emit := func(i int) {
		op.push(rows[i])
		rows[i] = relation.Tuple{} // release as emitted; the barrier is over
	}
	if !v.Desc {
		for _, i := range failed {
			emit(i)
		}
	}
	for _, pi := range perm {
		emit(itemRow[pi])
	}
	if v.Desc {
		for _, i := range failed {
			emit(i)
		}
	}
}

// rateSurface returns the rating task of a Rank node, or nil when the
// ORDER BY task can only compare.
func rateSurface(v *plan.Rank) *qlang.TaskDef {
	if v.Task != nil && v.Task.Type == qlang.TaskRating {
		return v.Task
	}
	return nil
}

// defaultRankStrategy is the static fallback when no optimizer is
// wired: rate when the task rates, compare otherwise.
func defaultRankStrategy(v *plan.Rank, n int) rank.Decision {
	d := rank.Decision{
		Strategy:  rank.StrategyCompare,
		GroupSize: rank.GroupSizeFor(rateSurface(v), v.Compare),
		TopK:      v.TopK,
		Desc:      v.Desc,
	}
	if rateSurface(v) != nil {
		d.Strategy = rank.StrategyRate
	}
	return d
}

// runOrderBy is the generic sort for multi-key or mixed-expression
// ORDER BY clauses: it buffers the input (a barrier, like runRank),
// resolves human sort keys (e.g. rating tasks) per tuple, sorts, and
// emits in order — releasing each buffered tuple as it streams out.
func (q *run) runOrderBy(op *operator, v *plan.OrderBy, in Iterator) {
	defer op.finish()
	s := op.step
	var rows []relation.Tuple
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		rows = append(rows, t)
	}
	q.noteResident(int64(len(rows)))
	keys := make([][]relation.Value, len(rows))
	wg := quiesce.WaitGroup{Gate: q.gate}
	sortKeys := func(r *tupleCalls, err error) {
		defer wg.Done()
		// A key that fails stays Null, so Compare during the sort sees a
		// well-defined value.
		ks := make([]relation.Value, len(v.Keys))
		keys[r.row] = ks
		if err != nil {
			q.reportError(err)
			return
		}
		for j, k := range s.exprs {
			val, err := k.eval(r.t, q.params, r.vals)
			if err != nil {
				q.reportError(err)
				val = relation.Null
			}
			ks[j] = val
		}
	}
	for i, t := range rows {
		wg.Add(1)
		r := q.newCalls(op, t, sortKeys)
		r.row = i
		r.resolve(s.calls, 0, false)
	}
	q.flushTasks(s.tasks)
	wg.Wait()

	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j := range v.Keys {
			c := ka[j].Compare(kb[j])
			if v.Keys[j].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, i := range idx {
		op.push(rows[i])
		// The barrier is over once the order is final: drop each
		// tuple's buffered reference as it streams out, so a slow
		// consumer doesn't pin the whole input twice (queue + buffer).
		rows[i] = relation.Tuple{}
		keys[i] = nil
	}
}

// runAggregate groups rows and computes aggregates, resolving each
// tuple's human calls; the call-free case fuses into aggregateIter
// instead.
func (q *run) runAggregate(op *operator, v *plan.Aggregate, in Iterator) {
	defer op.finish()
	s := op.step
	groups := make(map[string]*aggGroup)
	var order []string

	var mu sync.Mutex
	wg := quiesce.WaitGroup{Gate: q.gate}
	group := func(r *tupleCalls, err error) {
		defer wg.Done()
		if err != nil {
			q.reportError(err)
			return
		}
		var keyEnc []byte
		for _, k := range s.exprs {
			kv, err := k.eval(r.t, q.params, r.vals)
			if err != nil {
				q.reportError(err)
				return
			}
			keyEnc = kv.Encode(keyEnc)
		}
		mu.Lock()
		defer mu.Unlock()
		g, ok := groups[string(keyEnc)]
		if !ok {
			g = newAggGroup(r.t, r.vals)
			groups[string(keyEnc)] = g
			order = append(order, string(keyEnc))
		}
		g.add(q, s.aggs, r.t, r.vals)
	}
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		wg.Add(1)
		q.newCalls(op, t, group).resolve(s.calls, 0, false)
	}
	q.flushTasks(s.tasks)
	wg.Wait()

	sort.Strings(order)
	for _, key := range order {
		op.push(relation.Tuple{Schema: v.Schema(), Values: groups[key].result(q, s.aggs)})
	}
}

func (q *run) flushTasks(names []string) {
	if q.cfg.Mgr == nil {
		return
	}
	for _, name := range names {
		q.cfg.Mgr.FlushScope(name, q.cfg.Scope)
	}
}
