package exec

import (
	"fmt"
	"sort"
	"strings"
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
// set). Tuples flow out as soon as their last predicate passes.
func (q *run) runFilter(op *operator, v *plan.Filter, in Iterator) {
	defer op.finish()
	var local, human []qlang.Expr
	var bound []*binding // per human conjunct
	for _, c := range v.Conjuncts {
		if b := bindCalls(q.cfg.Script, c); len(b.sites) > 0 {
			human = append(human, c)
			bound = append(bound, b)
		} else {
			local = append(local, c)
		}
	}
	var grouped *binding // all human conjuncts in one HIT per tuple
	if q.cfg.GroupFilters && len(human) > 1 {
		grouped = bindCalls(q.cfg.Script, human...)
	}
	tasks := taskNames(bound...)

	wg := quiesce.WaitGroup{Gate: q.gate}
	var sem *quiesce.Sem
	if q.cfg.FilterWindow > 0 && len(human) > 0 && !q.cfg.GroupFilters {
		sem = quiesce.NewSem(q.gate, q.cfg.FilterWindow)
	}
	finish := func() {
		if sem != nil {
			sem.Release()
		}
		wg.Done()
	}
	process := func(t relation.Tuple) {
		for _, c := range local {
			pass, err := Eval(c, t)
			if err != nil {
				q.reportError(err)
				return
			}
			if !pass.Truthy() {
				return
			}
		}
		if len(human) == 0 {
			op.push(t)
			return
		}
		wg.Add(1)
		if grouped != nil {
			q.groupFilter(op, t, human, grouped, &wg)
			return
		}
		if sem != nil {
			sem.Acquire()
			// The window is open: flush whatever the previous tuples
			// queued so their results (and selectivity updates) arrive
			// while later tuples wait here.
			q.flushTasks(tasks)
		}
		// Order is chosen when the tuple enters its cascade, so the
		// optimizer's live selectivity estimates steer later tuples.
		order := q.filterOrder(human)
		var step func(k int)
		step = func(k int) {
			if k == len(order) {
				op.push(t)
				finish()
				return
			}
			c, b := human[order[k]], bound[order[k]]
			asg := 0
			if u, ok := c.(*qlang.Unary); ok && u.Op == "POSSIBLY" {
				asg = 1 // approximate predicate: no redundancy
			}
			q.resolve(op, b, t, asg, func(vals []relation.Value, err error) {
				if err != nil {
					q.reportError(err)
					finish()
					return
				}
				pass, err := eval(c, t, b, vals)
				if err != nil {
					q.reportError(err)
					finish()
					return
				}
				if !pass.Truthy() {
					finish()
					return
				}
				step(k + 1)
			})
		}
		step(0)
	}

	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		process(t)
	}
	q.flushTasks(tasks)
	wg.Wait()
}

func (q *run) filterOrder(human []qlang.Expr) []int {
	if q.cfg.FilterOrder != nil {
		order := q.cfg.FilterOrder(human)
		if len(order) == len(human) {
			return order
		}
	}
	order := make([]int, len(human))
	for i := range order {
		order[i] = i
	}
	return order
}

// groupFilter asks all human conjuncts about one tuple in a single HIT;
// b binds their calls jointly, so a call two conjuncts share is asked
// once.
func (q *run) groupFilter(op *operator, t relation.Tuple, human []qlang.Expr, b *binding, wg *quiesce.WaitGroup) {
	args, vals, err := b.prepare(t)
	if err != nil {
		q.reportError(err)
		wg.Done()
		return
	}
	g := &gather{vals: vals, remaining: len(b.sites), then: func(vals []relation.Value, err error) {
		defer wg.Done()
		if err != nil {
			q.reportError(err)
			return
		}
		for _, c := range human {
			pass, err := eval(c, t, b, vals)
			if err != nil {
				q.reportError(err)
				return
			}
			if !pass.Truthy() {
				return
			}
		}
		op.push(t)
	}}
	reqs := make([]taskmgr.Request, len(b.sites))
	for i := range b.sites {
		reqs[i] = q.request(op, b, i, args, 0, g)
	}
	if err := q.cfg.Mgr.SubmitGroup(reqs); err != nil {
		q.reportError(err)
		wg.Done()
	}
}

// runProject resolves each tuple's human calls (bound in b), then
// computes outputs.
func (q *run) runProject(op *operator, v *plan.Project, b *binding, in Iterator) {
	defer op.finish()
	wg := quiesce.WaitGroup{Gate: q.gate}
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		wg.Add(1)
		q.resolve(op, b, t, 0, func(calls []relation.Value, err error) {
			defer wg.Done()
			if err != nil {
				q.reportError(err)
				return
			}
			vals := make([]relation.Value, 0, v.Schema().Len())
			for _, it := range v.Items {
				if _, isStar := it.Expr.(*qlang.Star); isStar {
					vals = append(vals, t.Values...)
					continue
				}
				val, err := eval(it.Expr, t, b, calls)
				if err != nil {
					q.reportError(err)
					return
				}
				vals = append(vals, val)
			}
			op.push(relation.Tuple{Schema: v.Schema(), Values: vals})
		})
	}
	q.flushTasks(taskNames(b))
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

	ls := q.evalSide(lbuf, v.LeftArg)
	rs := q.evalSide(rbuf, v.RightArg)
	if q.cfg.JoinPairwise {
		q.joinPairwise(op, v, ls, rs)
		return
	}
	q.joinTwoColumn(op, v, ls, rs)
}

func (q *run) evalSide(buf []relation.Tuple, arg qlang.Expr) []joinSide {
	out := make([]joinSide, 0, len(buf))
	for _, t := range buf {
		val, err := Eval(arg, t)
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

func (q *run) passesAll(conjuncts []qlang.Expr, t relation.Tuple) bool {
	for _, c := range conjuncts {
		pass, err := Eval(c, t)
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
	leftItems := joinItems(ls, "L")
	rightItems := joinItems(rs, "R")
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
				if q.passesAll(v.Residual, joined) {
					op.push(joined)
				}
			})
		}
	}
	wg.Wait()
}

// joinItems renders one join input as grid items keyed prefix%06d by
// input position, every item's single argument carved from one array.
func joinItems(sides []joinSide, prefix string) []taskmgr.JoinItem {
	items := make([]taskmgr.JoinItem, len(sides))
	args := make([]relation.Value, len(sides))
	for i, s := range sides {
		args[i] = s.arg
		items[i] = taskmgr.JoinItem{Key: fmt.Sprintf("%s%06d", prefix, i), Args: args[i : i+1 : i+1]}
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
					if q.passesAll(v.Residual, joined) {
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
			a, err := Eval(v.Arg, t)
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

	items := make([]rank.Item, 0, len(rows))
	itemRow := make([]int, 0, len(rows)) // item index → row index
	var failed []int
	for i, t := range rows {
		args := make([]relation.Value, len(v.Args))
		ok := true
		for j, e := range v.Args {
			val, err := Eval(e, t)
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
		items = append(items, rank.Item{Key: fmt.Sprintf("r%06d", i), Args: args})
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
	q.noteRankStat(RankStat{
		Op:          v.Label(),
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
// emits in order — releasing each buffered tuple as it streams out. b
// binds the keys' human calls.
func (q *run) runOrderBy(op *operator, v *plan.OrderBy, b *binding, in Iterator) {
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
	keys := make([][]relation.Value, len(rows))
	wg := quiesce.WaitGroup{Gate: q.gate}
	for i, t := range rows {
		i, t := i, t
		wg.Add(1)
		q.resolve(op, b, t, 0, func(calls []relation.Value, err error) {
			defer wg.Done()
			if err != nil {
				q.reportError(err)
				// Fill with Null like the per-key error path below, so
				// Compare during the sort sees a well-defined value.
				ks := make([]relation.Value, len(v.Keys))
				for j := range ks {
					ks[j] = relation.Null
				}
				keys[i] = ks
				return
			}
			ks := make([]relation.Value, len(v.Keys))
			for j, k := range v.Keys {
				val, err := eval(k.Expr, t, b, calls)
				if err != nil {
					q.reportError(err)
					val = relation.Null
				}
				ks[j] = val
			}
			keys[i] = ks
		})
	}
	q.flushTasks(taskNames(b))
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

// runAggregate groups rows and computes aggregates, resolving the human
// calls bound in b per tuple; the call-free case fuses into
// aggregateIter instead.
func (q *run) runAggregate(op *operator, v *plan.Aggregate, b *binding, in Iterator) {
	defer op.finish()
	type group struct {
		first      relation.Tuple
		firstCalls []relation.Value
		count      int64
		sums       map[int]float64
		mins       map[int]relation.Value
		maxs       map[int]relation.Value
	}
	groups := make(map[string]*group)
	var order []string

	var mu sync.Mutex
	wg := quiesce.WaitGroup{Gate: q.gate}
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&op.in, 1)
		wg.Add(1)
		q.resolve(op, b, t, 0, func(calls []relation.Value, err error) {
			defer wg.Done()
			if err != nil {
				q.reportError(err)
				return
			}
			var keyEnc []byte
			for _, k := range v.Keys {
				kv, err := eval(k, t, b, calls)
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
				g = &group{first: t, firstCalls: calls,
					sums: map[int]float64{}, mins: map[int]relation.Value{}, maxs: map[int]relation.Value{}}
				groups[string(keyEnc)] = g
				order = append(order, string(keyEnc))
			}
			g.count++
			for i, it := range v.Items {
				call, isAgg := aggCall(it.Expr)
				if !isAgg || len(call.Args) == 0 {
					continue
				}
				val, err := eval(call.Args[0], t, b, calls)
				if err != nil {
					q.reportError(err)
					continue
				}
				g.sums[i] += val.Float()
				if cur, ok := g.mins[i]; !ok || val.Compare(cur) < 0 {
					g.mins[i] = val
				}
				if cur, ok := g.maxs[i]; !ok || val.Compare(cur) > 0 {
					g.maxs[i] = val
				}
			}
		})
	}
	q.flushTasks(taskNames(b))
	wg.Wait()

	sort.Strings(order)
	for _, key := range order {
		g := groups[key]
		vals := make([]relation.Value, 0, len(v.Items))
		for i, it := range v.Items {
			if call, isAgg := aggCall(it.Expr); isAgg {
				switch strings.ToLower(call.Name) {
				case "count":
					vals = append(vals, relation.NewInt(g.count))
				case "sum":
					vals = append(vals, relation.NewFloat(g.sums[i]))
				case "avg":
					vals = append(vals, relation.NewFloat(g.sums[i]/float64(g.count)))
				case "min":
					vals = append(vals, g.mins[i])
				case "max":
					vals = append(vals, g.maxs[i])
				}
				continue
			}
			val, err := eval(it.Expr, g.first, b, g.firstCalls)
			if err != nil {
				q.reportError(err)
				val = relation.Null
			}
			vals = append(vals, val)
		}
		op.push(relation.Tuple{Schema: v.Schema(), Values: vals})
	}
}

func aggCall(e qlang.Expr) (*qlang.Call, bool) {
	call, ok := e.(*qlang.Call)
	if !ok {
		return nil, false
	}
	if plan.AggregateFuncs[strings.ToLower(call.Name)] {
		return call, true
	}
	return nil, false
}

func (q *run) flushTasks(names []string) {
	if q.cfg.Mgr == nil {
		return
	}
	for _, name := range names {
		q.cfg.Mgr.FlushScope(name, q.cfg.Scope)
	}
}
