package core

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// Typed query errors. They surface (wrapped — test with errors.Is /
// errors.As) from Rows.Err and QueryHandle.Err.
var (
	// ErrCanceled reports the query's context was canceled, its Rows
	// closed early, or the engine shut down under it.
	ErrCanceled = qerr.ErrCanceled
	// ErrDeadline reports the query's WithDeadline virtual-time budget
	// (or its context deadline) expired first.
	ErrDeadline = qerr.ErrDeadline
	// ErrBudgetExhausted reports a budget — the engine account or a
	// per-query WithBudget cap — could not cover a HIT.
	ErrBudgetExhausted = qerr.ErrBudgetExhausted
)

// ParseError is a query-text error with line/column position.
type ParseError = qerr.ParseError

// queryOptions collects per-query overrides of the engine defaults.
type queryOptions struct {
	budgetCents budget.Cents
	deadline    time.Duration
	policies    map[string]taskmgr.Policy
	priority    int
	weight      int
	shared      bool
	adaptive    *bool
	noPlanCache bool
	label       string
}

// QueryOption customizes a single Query call, overriding the engine's
// global configuration for that query only.
type QueryOption func(*queryOptions)

// WithBudget caps this query's total spend. HITs beyond the cap fail
// with ErrBudgetExhausted; the engine-wide budget still applies on top.
func WithBudget(limit budget.Cents) QueryOption {
	return func(o *queryOptions) { o.budgetCents = limit }
}

// WithDeadline cancels the query with ErrDeadline after d of *virtual*
// time — the simulated marketplace minutes the dashboard reports, not
// wall time (use a context deadline for wall time).
func WithDeadline(d time.Duration) QueryOption {
	return func(o *queryOptions) { o.deadline = d }
}

// WithPolicy overrides the named task's policy (price, redundancy,
// batching, cache use) for this query only. TASK-definition clauses
// still win, exactly as they do over engine-level policies.
func WithPolicy(task string, p taskmgr.Policy) QueryOption {
	return func(o *queryOptions) {
		if o.policies == nil {
			o.policies = make(map[string]taskmgr.Policy)
		}
		o.policies[task] = p
	}
}

// WithAdaptiveJoins enables or disables cost-based join pre-filtering
// for this query, overriding Config.AdaptiveJoins.
func WithAdaptiveJoins(on bool) QueryOption {
	return func(o *queryOptions) { o.adaptive = &on }
}

// WithPlanCache enables or disables the normalized-SQL plan cache for
// this query only (default on when the engine's cache is enabled).
// Bypassing the cache plans from scratch and leaves the cache untouched
// — useful for A/B-verifying that cached and uncached plans agree.
func WithPlanCache(on bool) QueryOption {
	return func(o *queryOptions) { o.noPlanCache = !on }
}

// WithPriority orders this query's pending work ahead of (positive) or
// behind (negative) other queries when HIT batches are cut and when its
// HITs, of any kind, wait for admission. Default 0.
func WithPriority(p int) QueryOption {
	return func(o *queryOptions) { o.priority = p }
}

// WithSharedBatching opts this query into cross-query HIT sharing: its
// task applications may fill one HIT together with those of other
// sharing queries whose effective posting policy matches, with the HIT
// cost split across the queries by item count (integer cents,
// deterministic rounding) so per-query budgets and the dashboard's
// per-query spend stay exact. Canceling a sharing query detaches its
// items from shared HITs — refunding its share of the unconsumed cost
// — rather than expiring the HIT under the other participants. Tasks
// defined with "Share: Yes" co-batch regardless of this option.
func WithSharedBatching(on bool) QueryOption {
	return func(o *queryOptions) { o.shared = on }
}

// WithWeight sets this query's fair-share weight (default 1) for the
// admission scheduler: at equal priority, a weight-2 query is granted
// HIT slots twice as often as a weight-1 query while both have HITs
// queued. Only meaningful with Config.MaxInflightHITs set.
func WithWeight(w int) QueryOption {
	return func(o *queryOptions) { o.weight = w }
}

// WithLabel tags this query's scope for observability: the query's
// cost metrics get an extra per-scope series under scope="label",
// whether or not Config.Trace is set. Unlabeled queries (the default)
// only feed the aggregate series, keeping cardinality bounded.
func WithLabel(label string) QueryOption {
	return func(o *queryOptions) { o.label = label }
}

// Rows is a streaming cursor over one query's results, in the style of
// database/sql: tuples become visible as the executor's root operator
// emits them, while later HITs are still in flight, so callers see
// first rows long before the query completes.
//
//	rows, err := eng.Query(ctx, sql)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Tuple())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Next/Tuple are for a single consumer goroutine; Close (like
// database/sql's) may be called concurrently with Next to abort a
// blocked cursor — canceling the query unblocks it.
type Rows struct {
	h      *QueryHandle
	cursor int64
	buf    []relation.Tuple
	cur    relation.Tuple
	closed atomic.Bool
}

// Next blocks until the next tuple is available and reports whether it
// got one. It returns false when the stream ends — normally, by
// cancellation, or after Close; consult Err to distinguish.
func (r *Rows) Next() bool {
	if r.closed.Load() {
		return false
	}
	for len(r.buf) == 0 {
		fresh, cursor := r.h.Exec.Result().Wait(r.cursor)
		r.buf, r.cursor = fresh, cursor
		if len(fresh) == 0 {
			return false // closed and drained
		}
	}
	r.cur = r.buf[0]
	r.buf = r.buf[1:]
	return true
}

// Tuple returns the tuple the last successful Next positioned on.
func (r *Rows) Tuple() relation.Tuple { return r.cur }

// Err returns the query's terminal error through the typed taxonomy:
// nil for a clean run, ErrCanceled / ErrDeadline for terminated
// queries, ErrBudgetExhausted when a budget ran dry mid-query, or the
// first operator error otherwise. Meaningful once Next returned false,
// callable any time.
func (r *Rows) Err() error { return r.h.Err() }

// Close cancels whatever work the query still has outstanding — open
// HITs are expired and unspent budget released — and ends the stream.
// Closing an already-finished query cancels nothing, so the usual
// defer rows.Close() never discards anything a full iteration read.
//
// Close also releases the query's result rows once the stream has
// ended, whether it ended before Close or ends after it. The engine
// keeps the finished query's handle — its SQL, plan, spend, operator
// stats and result count stay on the dashboard — but not its rows, so
// a cursor opened later through QueryHandle.Rows sees none.
func (r *Rows) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.h.Cancel()
	r.h.Exec.Result().Release()
	return nil
}

// Handle exposes the underlying query handle (dashboard inspection,
// plan explain, sunk cost).
func (r *Rows) Handle() *QueryHandle { return r.h }

// Explain renders the query's EXPLAIN ANALYZE table from its trace —
// per operator: rows in/out, HITs, assignments, cost and virtual
// latency. Empty when the engine runs without Config.Trace.
func (r *Rows) Explain() string { return r.h.Explain() }

// Query parses, plans and starts one SELECT query under ctx, returning
// a streaming Rows cursor. Canceling ctx (or hitting its deadline, or a
// WithDeadline virtual deadline) cancels the query end to end: the
// executor stops, the query's open HITs are expired at the marketplace,
// unspent budget is released, and the dashboard shows the query as
// canceled with its sunk cost. Errors are typed: *ParseError for bad
// query text, and Rows.Err reports ErrCanceled / ErrDeadline /
// ErrBudgetExhausted / the first operator error.
func (e *Engine) Query(ctx context.Context, sql string, opts ...QueryOption) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o queryOptions
	for _, opt := range opts {
		opt(&o)
	}
	p, err := e.prepare(sql, nil, o)
	if err != nil {
		return nil, qerr.Classify(err)
	}
	h, err := e.startQuery(ctx, sql, p, o)
	if err != nil {
		return nil, qerr.Classify(err)
	}
	return &Rows{h: h}, nil
}
