package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/qerr"
	"repro/internal/qlang"
	"repro/internal/queue"
	"repro/internal/quiesce"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// Config parameterizes a query execution.
type Config struct {
	// Mgr routes human tasks; required when the plan has any.
	Mgr *taskmgr.Manager
	// Script supplies task definitions for calls in expressions.
	Script *qlang.Script
	// QueueSize is the operator queue capacity (default 64).
	QueueSize int
	// JoinLeftBlock × JoinRightBlock is the two-column join grid size
	// per HIT (defaults 5×5, the shape of Figure 3).
	JoinLeftBlock, JoinRightBlock int
	// JoinPairwise uses the one-pair-per-question interface instead of
	// the two-column grid (the baseline in the join-interface sweep).
	JoinPairwise bool
	// GroupFilters merges the human predicates of one Filter node over
	// the same tuple into a single HIT (operator grouping) instead of
	// cascading them with short-circuit.
	GroupFilters bool
	// FilterOrder optionally reorders a Filter node's human conjuncts
	// per tuple; it receives the conjuncts and returns an evaluation
	// order (indices). The adaptive optimizer plugs in here. Nil keeps
	// query order.
	FilterOrder func(conjuncts []qlang.Expr) []int
	// FilterWindow bounds how many tuples run a human-filter cascade
	// concurrently (0 = unbounded). A small window lets selectivity
	// statistics from early tuples steer the ordering of later ones —
	// the adaptivity §2 calls for — at some latency cost.
	FilterWindow int
	// PreFilterKeep re-checks, between blocks of a join pre-filter
	// stage, whether filtering the remaining tuples is still predicted
	// to pay. remaining counts the tuples not yet submitted whose
	// filter answer is not already cached (the stage probes the task
	// cache with a counter-free Contains probe). Returning false makes the stage pass the rest
	// of its input through unfiltered — the mid-query re-plan of the
	// adaptive join optimization. Nil keeps filtering to the end.
	PreFilterKeep func(pf *plan.PreFilter, remaining int) bool
	// PreFilterBlock is how many tuples the first pre-filter round
	// submits before waiting for outcomes and re-checking the decision
	// (default 25). Smaller blocks adapt faster at a latency cost.
	PreFilterBlock int
	// PreFilterMaxBlock caps the cost-aware re-plan schedule: after each
	// block that bought new evidence the stage doubles its block size —
	// selectivity confidence rises with evidence, so re-checks get
	// cheaper-per-tuple as the stage proceeds — up to this bound.
	// 0 means 8× PreFilterBlock.
	PreFilterMaxBlock int
	// RankStrategy decides, per Rank node and runtime cardinality, how
	// the human-powered sort runs (compare / rate / hybrid, batch size,
	// top-k). The optimizer's RankChooser plugs in here; nil falls back
	// to a static heuristic (rate when a rating surface exists,
	// compare otherwise).
	RankStrategy func(v *plan.Rank, n int) rank.Decision
	// OnError receives per-tuple execution errors (default: collected
	// in Query.Errors).
	OnError func(error)
	// Scope binds every human-task submission of this query to one
	// taskmgr cancellation scope, so Cancel can expire the query's open
	// HITs and release its unspent budget. Nil runs unscoped (HITs
	// outlive the query, matching the pre-context behavior).
	Scope *taskmgr.Scope
	// Now reports current virtual time; when set, the query records the
	// virtual moment its first result tuple streamed out (FirstRowAt).
	Now func() mturk.VirtualTime
	// Trace is the query's root span; when set, every operator gets a
	// child span and threads it into its task submissions. Nil (the
	// default) disables tracing with zero overhead.
	Trace *obs.Span
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	c.JoinLeftBlock, c.JoinRightBlock = c.JoinGrid()
	if c.PreFilterBlock <= 0 {
		c.PreFilterBlock = 25
	}
	if c.Script == nil {
		c.Script = &qlang.Script{}
	}
	return c
}

// JoinGrid returns the two-column join grid size per HIT:
// JoinLeftBlock × JoinRightBlock, each defaulting to 5.
func (c Config) JoinGrid() (left, right int) {
	left, right = c.JoinLeftBlock, c.JoinRightBlock
	if left <= 0 {
		left = 5
	}
	if right <= 0 {
		right = 5
	}
	return left, right
}

// OpStats describe one operator's progress for the dashboard.
type OpStats struct {
	Label   string
	In, Out int64
	Done    bool
}

// operator is one plan node's progress record. Async (human-powered)
// operators run a producer goroutine and own an output queue; local
// operators fuse into their consumer's pull chain and leave out nil.
type operator struct {
	label string
	out   *queue.Queue // nil for fused local operators
	in    int64        // atomic
	emit  int64        // atomic
	done  int32        // atomic
	// decided counts input tuples whose fate is settled; only
	// pre-filter stages maintain it (block submission lags input
	// arrival, so `in` alone would make undecided tuples look
	// processed).
	decided int64 // atomic
	// span is this operator's trace span (nil = tracing off); it rides
	// into every task submission the operator makes.
	span *obs.Span
}

func (o *operator) stats() OpStats {
	return OpStats{
		Label: o.label,
		In:    atomic.LoadInt64(&o.in),
		Out:   atomic.LoadInt64(&o.emit),
		Done:  atomic.LoadInt32(&o.done) == 1,
	}
}

func (o *operator) push(t relation.Tuple) {
	if err := o.out.Push(t); err == nil {
		atomic.AddInt64(&o.emit, 1)
	}
}

func (o *operator) markDone() { atomic.StoreInt32(&o.done, 1) }

func (o *operator) finish() {
	o.markDone()
	o.out.Close()
}

// Query is a running (or finished) query execution.
//
// A query is over once its result stream has ended and every operator
// goroutine has exited. Each operator waits for the outcome of every
// crowd request it submits before it exits, so by then every request
// has resolved too; a LIMIT query's producers and their request
// callbacks can outlive its stream. An over query retires: it freezes
// its operator stats, join reductions and peak resident count, and
// drops its execution state (operators and their queues, join
// trackers, its Config and the gate), so a finished query costs a small
// fixed record. Every accessor answers the same before and after
// retirement.
type Query struct {
	result *relation.Table
	done   chan struct{} // closed when the result stream has fully drained
	stop   int32         // atomic; set by Cancel so fused iterators bail out

	// live is the execution state; nil once the query has retired.
	live atomic.Pointer[run]

	mu          sync.Mutex
	errors      []error
	errTotal    int64
	cause       error // cancellation cause; nil unless canceled
	firstRowAt  mturk.VirtualTime
	endedAt     mturk.VirtualTime
	hasFirstRow bool
	hasEnded    bool
	rankStats   []RankStat
	// Frozen from the execution state at retirement.
	opStats []OpStats
	joins   []JoinReduction
	peak    int64
}

// run is a query's execution state, which it needs only while it runs.
// Operators and iterators hold it (as q); the embedded Query is the
// record that outlives it.
type run struct {
	*Query
	cfg Config
	ops []*operator
	// gate is the quiescence gate of the task manager's clock: every
	// executor goroutine holds it while runnable and parks on it while
	// waiting, so the clock's pump never advances virtual time past work
	// the executor could still submit. Nil without a task manager.
	gate *quiesce.Gate

	trackers []*joinTracker

	// residentSum accumulates the buffer sizes of barrier operators
	// (sorts, joins, aggregates); with queue high-water marks it bounds
	// how many tuples the query ever held at once (PeakTuplesResident).
	residentSum int64 // atomic

	// running counts the sink and operator goroutines that have not
	// exited; the last one out retires the query.
	running atomic.Int32
}

// state returns the execution state, or nil once the query has retired.
// A caller that sees nil and then takes mu sees the frozen record: exit
// clears live only after it has written the record, under mu.
func (q *Query) state() *run { return q.live.Load() }

// Retired reports whether the query is over and has dropped its
// execution state.
func (q *Query) Retired() bool { return q.state() == nil }

// spawn runs f on a gated goroutine that the query waits for before it
// retires.
func (q *run) spawn(f func()) {
	q.running.Add(1)
	q.gate.Go(func() {
		defer q.exit()
		f()
	})
}

// exit ends one counted goroutine; the last one retires the query.
func (q *run) exit() {
	if q.running.Add(-1) > 0 {
		return
	}
	ops, joins, peak := q.opStatsNow(), q.joinReductionsNow(), q.peakNow()
	q.mu.Lock()
	q.opStats, q.joins, q.peak = ops, joins, peak
	q.live.Store(nil)
	q.mu.Unlock()
}

// RankStat reports one Rank operator's chosen strategy and spend, for
// the dashboard's sort panel.
type RankStat struct {
	Op string // operator label
	// Task is the ORDER BY task; CompareTask the comparison task the
	// sort can fall back to, or "" when it has none.
	Task, CompareTask string
	Strategy          string
	Items             int
	GroupSize         int
	// CompareHITs counts comparison (Order) HITs the strategy posted;
	// RateAsks the rating questions it submitted (batched into
	// ⌈RateAsks/batch⌉ HITs by the task policy).
	CompareHITs int
	RateAsks    int
	// Windows / Refined describe hybrid comparison refinement.
	Windows, Refined int
}

// RankStats snapshots every completed Rank operator's report.
func (q *Query) RankStats() []RankStat {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]RankStat(nil), q.rankStats...)
}

func (q *Query) noteRankStat(rs RankStat) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.rankStats = append(q.rankStats, rs)
}

// maxRecordedErrors bounds Query.Errors so a canceled or failing query
// over a large input cannot hoard memory; ErrorCount keeps the total.
const maxRecordedErrors = 1000

// joinTracker pairs a human join with its input operators so the
// dashboard can report how much of the cross product the pre-filter
// stages avoided.
type joinTracker struct {
	label             string
	task              string
	left, right       *operator
	leftPre, rightPre bool
}

// JoinReduction quantifies one pre-filtered join's cross-product
// shrinkage: In counts tuples entering each side's pre-filter stage,
// Kept the survivors it forwarded, and PairsAvoided the join pairs
// already-rejected tuples will never buy (the paper's "filtering-based
// reduction in cross-product size"). Mid-query, tuples the filter has
// not decided yet count as neither kept nor avoided, so a dashboard
// snapshot never reports savings that have not happened; on a finished
// query PairsAvoided equals LeftIn×RightIn − LeftKept×RightKept.
type JoinReduction struct {
	Join               string // join operator label
	Task               string // join task name
	LeftIn, LeftKept   int64
	RightIn, RightKept int64
	PairsAvoided       int64
}

// JoinReductions snapshots the cross-product reduction of every human
// join that has at least one pre-filter stage.
func (q *Query) JoinReductions() []JoinReduction {
	if r := q.state(); r != nil {
		return r.joinReductionsNow()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.Clone(q.joins)
}

func (q *run) joinReductionsNow() []JoinReduction {
	out := make([]JoinReduction, 0, len(q.trackers))
	for _, tr := range q.trackers {
		ls, rs := tr.left.stats(), tr.right.stats()
		jr := JoinReduction{Join: tr.label, Task: tr.task,
			LeftIn: ls.Out, LeftKept: ls.Out, RightIn: rs.Out, RightKept: rs.Out}
		var droppedL, droppedR int64
		if tr.leftPre {
			jr.LeftIn, jr.LeftKept = ls.In, ls.Out
			droppedL = atomic.LoadInt64(&tr.left.decided) - jr.LeftKept
		}
		if tr.rightPre {
			jr.RightIn, jr.RightKept = rs.In, rs.Out
			droppedR = atomic.LoadInt64(&tr.right.decided) - jr.RightKept
		}
		// Every dropped-left tuple avoids the full right input and vice
		// versa; dropped×dropped pairs would be double-counted.
		jr.PairsAvoided = droppedL*jr.RightIn + droppedR*jr.LeftIn - droppedL*droppedR
		out = append(out, jr)
	}
	return out
}

// Result returns the results table; it is closed when the query
// completes. Poll or Wait on it, per the paper's push-based model.
func (q *Query) Result() *relation.Table { return q.result }

// Wait blocks until the query finishes and returns all result tuples.
func (q *Query) Wait() []relation.Tuple { return q.result.WaitClosed() }

// Errors returns per-tuple errors recorded during execution (capped at
// maxRecordedErrors; see ErrorCount for the uncapped total).
func (q *Query) Errors() []error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]error(nil), q.errors...)
}

// ErrorCount reports how many per-tuple errors occurred in total.
func (q *Query) ErrorCount() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.errTotal
}

// Err reports the query's terminal error through the typed taxonomy:
// the cancellation cause when the query was canceled (ErrCanceled /
// ErrDeadline), otherwise the first operator error classified
// (ErrBudgetExhausted for budget failures), or nil for a clean run.
// Like database/sql's Rows.Err, it is meaningful once the result
// stream has ended but may be called at any time.
func (q *Query) Err() error {
	q.mu.Lock()
	cause := q.cause
	var first error
	if len(q.errors) > 0 {
		first = q.errors[0]
	}
	q.mu.Unlock()
	if cause != nil {
		return qerr.Classify(cause)
	}
	return qerr.Classify(first)
}

// Done returns a channel closed when the query's result stream has
// fully drained (normally or after cancellation).
func (q *Query) Done() <-chan struct{} { return q.done }

// Canceled reports whether Cancel has been called.
func (q *Query) Canceled() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cause != nil
}

// FirstRowAt reports the virtual time the first result tuple streamed
// out of the root operator (requires Config.Now; ok=false before the
// first row or without it).
func (q *Query) FirstRowAt() (mturk.VirtualTime, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.firstRowAt, q.hasFirstRow
}

// EndedAt reports the virtual time the result stream ended (requires
// Config.Now; ok=false while the query runs or without it). It is exact:
// the clock's pump cannot step while the sink goroutine, which holds the
// gate, observes the end of the stream.
func (q *Query) EndedAt() (mturk.VirtualTime, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.endedAt, q.hasEnded
}

// Cancel stops the query with the given cause (ErrCanceled when nil):
// the query's scope is canceled — expiring its open HITs at the
// marketplace and releasing unspent budget — operator queues are closed
// so every stage drains, and the result table closes once in-flight
// tuples settle. Cancel after completion is a no-op; the first cause
// wins. Safe from any goroutine.
func (q *Query) Cancel(cause error) {
	select {
	case <-q.done:
		return
	default:
	}
	// The result table closes strictly before q.done does; between the
	// two a completed query must not be relabeled as canceled (the usual
	// defer rows.Close() after a full iteration lands exactly there).
	if q.result.Closed() {
		return
	}
	if cause == nil {
		cause = qerr.ErrCanceled
	}
	q.mu.Lock()
	if q.cause != nil {
		q.mu.Unlock()
		return
	}
	q.cause = cause
	q.mu.Unlock()
	r := q.state()
	atomic.StoreInt32(&q.stop, 1)
	if r == nil {
		return // the stream ended and the query retired meanwhile
	}
	// Resolve blocked operator waits first (outcome callbacks fire with
	// the cause), then close the queues so blocked Pops observe
	// end-of-stream; fused local operators have no queue and observe the
	// stop flag instead.
	if r.cfg.Scope != nil {
		r.cfg.Scope.Cancel(cause)
	}
	for _, op := range r.ops {
		if op.out != nil {
			op.out.Close()
		}
	}
}

// stopped reports whether Cancel has run; fused iterators poll it once
// per tuple so cancellation does not wait on queue closure.
func (q *Query) stopped() bool { return atomic.LoadInt32(&q.stop) == 1 }

func (q *run) noteResident(n int64) { atomic.AddInt64(&q.residentSum, n) }

// PeakTuplesResident upper-bounds how many tuples the query ever held
// buffered at once: the summed high-water marks of the async operator
// queues plus every barrier buffer (sort, rank, aggregate, join build)
// at its fullest. Pipelined tuples in flight between fused operators
// are O(pipeline depth) and not counted.
func (q *Query) PeakTuplesResident() int64 {
	if r := q.state(); r != nil {
		return r.peakNow()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak
}

func (q *run) peakNow() int64 {
	total := atomic.LoadInt64(&q.residentSum)
	for _, op := range q.ops {
		if op.out != nil {
			_, _, hwm := op.out.Stats()
			total += int64(hwm)
		}
	}
	return total
}

func (q *run) noteFirstRow() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.hasFirstRow {
		q.firstRowAt = q.cfg.Now()
		q.hasFirstRow = true
	}
}

// OpStats snapshots every operator's progress, leaves first.
func (q *Query) OpStats() []OpStats {
	if r := q.state(); r != nil {
		return r.opStatsNow()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.Clone(q.opStats)
}

func (q *run) opStatsNow() []OpStats {
	out := make([]OpStats, len(q.ops))
	for i, op := range q.ops {
		out[i] = op.stats()
	}
	return out
}

func (q *run) reportError(err error) {
	if q.cfg.OnError != nil {
		q.cfg.OnError(err)
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// After cancellation every outstanding item resolves with the cause;
	// neither recording nor counting that flood — the dashboard's error
	// column means genuine tuple errors, and the cause is the headline.
	if q.cause != nil {
		return
	}
	q.errTotal++
	if len(q.errors) >= maxRecordedErrors {
		return
	}
	q.errors = append(q.errors, err)
}

// Start launches the plan as a composed pull-iterator chain: local
// (call-free) operators fuse into the sink's pull loop, human-powered
// operators get a producer goroutine bridged through a queue. It
// returns immediately; results stream into Query.Result().
func Start(root plan.Node, cfg Config) (*Query, error) {
	cfg = cfg.withDefaults()
	if needsHumans(root) && cfg.Mgr == nil {
		return nil, fmt.Errorf("exec: plan has human operators but no task manager")
	}
	q := &run{
		Query: &Query{done: make(chan struct{}), result: relation.NewTable("result", root.Schema())},
		cfg:   cfg,
	}
	q.live.Store(q)
	if cfg.Mgr != nil {
		q.gate = cfg.Mgr.Backend().Clock().Gate()
	}
	// The sink's count is taken before build, so a producer that ends
	// before the sink starts cannot retire the query.
	q.running.Store(1)
	top, _, err := q.build(root, cfg.Trace)
	if err != nil {
		close(q.done)
		return nil, err
	}
	q.gate.Go(func() {
		defer q.exit()
		stable := top.Stable()
		for {
			t, ok := top.Next()
			if !ok {
				break
			}
			if q.cfg.Now != nil {
				q.noteFirstRow()
			}
			if !stable {
				// The result table retains inserted tuples; transient
				// roots reuse their buffers, so copy out.
				t = cloneTuple(t)
			}
			if err := q.result.Insert(t); err != nil {
				q.reportError(err)
			}
		}
		if q.cfg.Now != nil {
			q.mu.Lock()
			q.endedAt, q.hasEnded = q.cfg.Now(), true
			q.mu.Unlock()
		}
		top.Close()
		q.endSpans()
		q.result.Close()
		close(q.done)
	})
	return q.Query, nil
}

// endSpans stamps each operator's final row counts onto its span, ends
// it, and closes the query root. A canceled query's scope already
// closed the tree; End is idempotent, and counters land harmlessly on
// ended spans.
func (q *run) endSpans() {
	for _, op := range q.ops {
		if op.span == nil {
			continue
		}
		st := op.stats()
		op.span.AddRowsIn(st.In)
		op.span.AddRowsOut(st.Out)
		op.span.End()
	}
	if q.cfg.Trace != nil {
		q.cfg.Trace.End()
	}
}

// StartContext is Start bound to a context: when ctx is canceled (or
// its deadline expires) the query is canceled with the matching typed
// cause, which propagates through the task manager to the marketplace —
// open HITs for the dead query are expired and unspent budget released.
// The watcher goroutine exits when the query finishes on its own.
func StartContext(ctx context.Context, root plan.Node, cfg Config) (*Query, error) {
	q, err := Start(root, cfg)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				q.Cancel(qerr.FromContext(ctx.Err()))
			case <-q.done:
			}
		}()
	}
	return q, nil
}

// Run executes the plan to completion and returns the result rows.
// The caller must be pumping the marketplace clock concurrently.
func Run(root plan.Node, cfg Config) ([]relation.Tuple, error) {
	q, err := Start(root, cfg)
	if err != nil {
		return nil, err
	}
	rows := q.Wait()
	if errs := q.Errors(); len(errs) > 0 {
		return rows, fmt.Errorf("exec: %d tuple errors, first: %v", len(errs), errs[0])
	}
	return rows, nil
}

func needsHumans(n plan.Node) bool {
	found := false
	plan.Walk(n, func(node plan.Node) {
		switch v := node.(type) {
		case *plan.Join:
			if v.HumanTask != nil {
				found = true
			}
		case *plan.PreFilter:
			found = true
		case *plan.Rank:
			found = true
		}
	})
	// Calls inside filters/projections are checked at runtime against
	// the script; a conservative true when any Call exists would need
	// the script here, so operators also error helpfully at runtime.
	return found
}

// async sets up the queue bridge for a human-powered operator: the
// caller launches a producer goroutine that pushes into op.out, and
// downstream pulls through the returned queueIter.
func (q *run) async(op *operator) *queueIter {
	op.out = queue.NewGated(q.cfg.QueueSize, q.gate)
	return &queueIter{op: op}
}

// build composes the iterator chain for a node, appending one operator
// record per plan node pre-order (top-down) so OpStats keeps plan
// order. Call-free operators fuse into the consumer's pull chain;
// human-powered ones keep a producer goroutine. Async operators wrap
// their inputs in ensureStable: HIT callbacks retain tuples
// indefinitely, which transient iterators do not allow.
func (q *run) build(n plan.Node, parent *obs.Span) (Iterator, *operator, error) {
	op := &operator{label: n.Label()}
	if parent != nil {
		op.span = parent.Child(obs.KindOperator, n.Label())
	}
	q.ops = append(q.ops, op)
	switch v := n.(type) {
	case *plan.Scan:
		return &scanIter{q: q, op: op, v: v}, op, nil
	case *plan.Filter:
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		// runFilter binds each human conjunct on its own.
		if len(bindCalls(q.cfg.Script, v.Conjuncts...).sites) == 0 {
			return &filterIter{q: q, op: op, child: in, conjuncts: v.Conjuncts}, op, nil
		}
		it := q.async(op)
		q.spawn(func() { q.runFilter(op, v, ensureStable(in)) })
		return it, op, nil
	case *plan.Project:
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		exprs := make([]qlang.Expr, len(v.Items))
		for i, item := range v.Items {
			exprs[i] = item.Expr
		}
		b := bindCalls(q.cfg.Script, exprs...)
		if len(b.sites) == 0 {
			return &projectIter{q: q, op: op, v: v, child: in}, op, nil
		}
		it := q.async(op)
		q.spawn(func() { q.runProject(op, v, b, ensureStable(in)) })
		return it, op, nil
	case *plan.PreFilter:
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		it := q.async(op)
		q.spawn(func() { q.runPreFilter(op, v, ensureStable(in)) })
		return it, op, nil
	case *plan.Join:
		left, lop, err := q.build(v.Left, op.span)
		if err != nil {
			return nil, nil, err
		}
		right, rop, err := q.build(v.Right, op.span)
		if err != nil {
			return nil, nil, err
		}
		_, lpre := v.Left.(*plan.PreFilter)
		_, rpre := v.Right.(*plan.PreFilter)
		if lpre || rpre {
			task := ""
			if v.HumanTask != nil {
				task = v.HumanTask.Name
			}
			q.trackers = append(q.trackers, &joinTracker{
				label: v.Label(), task: task,
				left: lop, right: rop, leftPre: lpre, rightPre: rpre,
			})
		}
		if v.HumanTask == nil {
			return &localJoinIter{q: q, op: op, v: v, left: left, right: ensureStable(right)}, op, nil
		}
		it := q.async(op)
		q.spawn(func() { q.runJoin(op, v, ensureStable(left), ensureStable(right)) })
		return it, op, nil
	case *plan.OrderBy:
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		exprs := make([]qlang.Expr, len(v.Keys))
		for i, k := range v.Keys {
			exprs[i] = k.Expr
		}
		b := bindCalls(q.cfg.Script, exprs...)
		if len(b.sites) == 0 {
			return &orderByIter{q: q, op: op, v: v, child: in}, op, nil
		}
		it := q.async(op)
		q.spawn(func() { q.runOrderBy(op, v, b, ensureStable(in)) })
		return it, op, nil
	case *plan.Rank:
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		it := q.async(op)
		q.spawn(func() { q.runRank(op, v, ensureStable(in)) })
		return it, op, nil
	case *plan.Aggregate:
		exprs := append([]qlang.Expr(nil), v.Keys...)
		for _, item := range v.Items {
			if call, isAgg := aggCall(item.Expr); isAgg {
				exprs = append(exprs, call.Args...)
			} else {
				exprs = append(exprs, item.Expr)
			}
		}
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		b := bindCalls(q.cfg.Script, exprs...)
		if len(b.sites) == 0 {
			return &aggregateIter{q: q, op: op, v: v, child: in}, op, nil
		}
		it := q.async(op)
		q.spawn(func() { q.runAggregate(op, v, b, ensureStable(in)) })
		return it, op, nil
	case *plan.Distinct:
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		return &distinctIter{q: q, op: op, child: in, seen: make(map[string]struct{})}, op, nil
	case *plan.Limit:
		in, _, err := q.build(v.Input, op.span)
		if err != nil {
			return nil, nil, err
		}
		return &limitIter{q: q, op: op, child: in, n: v.N}, op, nil
	default:
		return nil, nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// resolve submits one request per bound call of tuple t and invokes then
// with the slot-indexed values (or the first error). All arguments are
// evaluated before the first submission. then runs synchronously when
// there are no calls or all are cached. assignments > 0 overrides the
// per-task redundancy (POSSIBLY predicates pass 1).
func (q *run) resolve(op *operator, b *binding, t relation.Tuple, assignments int, then func([]relation.Value, error)) {
	if len(b.sites) == 0 {
		then(nil, nil)
		return
	}
	if q.cfg.Mgr == nil {
		then(nil, fmt.Errorf("exec: human call without task manager"))
		return
	}
	args, vals, err := b.prepare(t)
	if err != nil {
		then(nil, err)
		return
	}
	g := &gather{vals: vals, remaining: len(b.sites), then: then}
	for i := range b.sites {
		q.cfg.Mgr.Submit(q.request(op, b, i, args, assignments, g))
	}
}
