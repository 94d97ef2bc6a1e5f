// Package core wires Qurk's components — storage, language, planner,
// executor, task manager, marketplace, crowd, optimizer, cache, models,
// dashboard — into the engine depicted in Figure 1 of the paper.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/qerr"
	"repro/internal/qlang"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/taskmgr"
)

// Config parameterizes an engine instance.
type Config struct {
	// Crowd configures the simulated worker population.
	Crowd crowd.Config
	// Oracle supplies ground truth for the simulated crowd; required
	// unless Pool is set.
	Oracle crowd.Oracle
	// Pool overrides the simulated crowd with a custom worker pool.
	Pool mturk.WorkerPool
	// BudgetCents caps total spend (0 = unlimited).
	BudgetCents budget.Cents
	// Exec carries executor knobs. Every query sets its Mgr, Script, Now
	// and Scope, and Trace when tracing; it fills a nil RankStrategy, and
	// a nil FilterOrder or PreFilterKeep under the adaptive options.
	Exec exec.Config
	// AutoTune runs the optimizer over every defined task (assignments
	// from the redundancy model, batch size from accuracy decay).
	AutoTune bool
	// AdaptiveFilters installs the optimizer's live filter reordering.
	AdaptiveFilters bool
	// AdaptiveJoins enables cost-based join pre-filtering: the planner
	// wraps a human join's inputs in feature-filter stages when
	// optimizer.DecidePreFilter — fed live selectivity — predicts the
	// filter pays for itself by shrinking the cross product, and the
	// executor re-checks that decision between filter blocks.
	AdaptiveJoins bool
	// AttachModels creates a confidence-gated naive Bayes task model
	// for every boolean task, enabling classifier substitution.
	AttachModels bool
	// ModelMinExamples / ModelMinConfidence tune attached models
	// (defaults 30 and 0.85).
	ModelMinExamples   int
	ModelMinConfidence float64
	// StorePath opens (creating if needed) the durable knowledge store
	// at this directory. Everything the engine learns from the crowd —
	// cache entries, selectivity/latency observations, model training
	// examples, worker reputations — streams to its WAL; at start the
	// store is replayed so a fresh engine begins with a warm cache,
	// informed estimators, trained models and already-blocked spammers.
	// Empty means no persistence (seed behavior).
	StorePath string
	// MaxInflightHITs gates HIT posting: at most this many HITs of any
	// kind (batches, grouped filters, join grids and comparisons) are in
	// flight at once; further HITs queue in priority /
	// weighted-fair-share order (see WithPriority and WithWeight) so a
	// burst of concurrent queries degrades gracefully instead of
	// flooding the marketplace. 0 = unlimited.
	MaxInflightHITs int
	// Backends enables pluggable worker backends: the simulated crowd
	// is joined by an LLM worker crowd and/or an MTurk-shaped HTTP
	// service behind a per-task router. Nil runs on the plain simulated
	// marketplace (seed behavior, byte-identical verify fingerprints).
	Backends *BackendsConfig
	// Inference selects the answer-inference method and adaptive
	// redundancy parameters. Nil keeps seed-identical majority voting.
	Inference *InferenceConfig
	// Trace gives every query a span tree (query → plan → operator →
	// batch → HIT → assignment) on the virtual clock. Off (the default)
	// costs nothing: no spans, no allocations on any hot path. The
	// metrics registry (Engine.Metrics) is always on either way.
	Trace bool
}

// InferenceConfig turns on joint worker-quality/answer inference.
type InferenceConfig struct {
	// Method is "majority" (the default) or "em". Under "em", eligible
	// HITs post at MinAssignments and extend one assignment at a time —
	// up to each task's Assignments cap — until every item's posterior
	// reaches TargetConfidence. A task's Infer: property overrides the
	// method per task.
	Method string
	// MinAssignments is the adaptive posting floor (0 = the manager
	// default, 2). A task's MinAssignments: property overrides it.
	MinAssignments int
	// TargetConfidence is the posterior stopping threshold
	// (0 = the manager default, 0.85).
	TargetConfidence float64
}

// BackendsConfig wires additional worker backends into the engine. The
// simulated crowd is always a member (named "sim"); tasks reach the
// others via a qlang `Backend:` pin or, with Route set, the optimizer's
// cost/quality chooser.
type BackendsConfig struct {
	// LLM enables an LLM worker crowd when LLM.Model is set. The
	// crowd shares the engine clock, so runs stay deterministic.
	LLM backend.LLMConfig
	// HTTP enables the MTurk-shaped HTTP driver when HTTP.BaseURL is
	// set. Its Clock field is managed by the engine. HITs routed here
	// complete on wall time — exclude it from deterministic verifies.
	HTTP backend.HTTPConfig
	// Default names the backend unrouted tasks use ("" = "sim").
	Default string
	// Route installs the optimizer's ChooseBackend as the router's
	// chooser for unpinned tasks, fed by each backend's advertised
	// price and quality priors and the live backend book.
	Route bool
}

// QueryHandle tracks one submitted query. A handle stays in
// Engine.Queries for the engine's life. Once its query is over and has
// left the dashboard's window of recent queries (see Engine.Snapshot),
// the handle keeps a compact record: its SQL, start time, spend and the
// executor's frozen stats, but no plan and no trace.
type QueryHandle struct {
	ID  int
	SQL string
	// Plan is the query's plan, or nil once the query has left the
	// dashboard's window. The engine clears it under its lock when it
	// starts a later query or renders the dashboard; read it while the
	// query is live or from the goroutine that drives the engine.
	Plan      plan.Node
	Exec      *exec.Query
	StartedAt mturk.VirtualTime
	scope     *taskmgr.Scope
	span      atomic.Pointer[obs.Span] // query root span; nil when tracing is off or the query left the window
}

// Result returns the pollable results table. Once a Rows of the query
// is closed and the stream has ended, the table's rows are released;
// its Len still counts them. A query started by RunScript has
// no Rows until QueryHandle.Rows opens one, so its table keeps its rows.
func (h *QueryHandle) Result() *relation.Table { return h.Exec.Result() }

// Rows returns a fresh streaming cursor over the query's results from
// the beginning. Closing it releases the results (see Rows.Close), so a
// cursor opened after some Rows of the query was closed and the stream
// ended sees no rows.
func (h *QueryHandle) Rows() *Rows { return &Rows{h: h} }

// Err reports the query's terminal error through the typed taxonomy
// (nil / ErrCanceled / ErrDeadline / ErrBudgetExhausted / first
// operator error). See Rows.Err.
func (h *QueryHandle) Err() error { return h.Exec.Err() }

// Cancel terminates the query: outstanding HITs are expired at the
// marketplace and unspent budget released. Idempotent; a no-op once
// the query has finished.
func (h *QueryHandle) Cancel() { h.Exec.Cancel(qerr.ErrCanceled) }

// Canceled reports whether the query was canceled before completing.
func (h *QueryHandle) Canceled() bool { return h.Exec.Canceled() }

// SunkCents reports the money this query actually consumed: HITs
// posted minus refunds for assignments expired by cancellation. It
// reads the query's scope, which a finished query keeps: its HITs can
// still be open after its stream ends (a LIMIT query posts every HIT
// its filter needs before the first row streams out).
func (h *QueryHandle) SunkCents() budget.Cents { return h.scope.Spent() }

// Trace returns the query's root span, or nil when the engine runs
// without Config.Trace or the query has left the dashboard's window.
func (h *QueryHandle) Trace() *obs.Span { return h.span.Load() }

// Explain renders the per-operator EXPLAIN ANALYZE table (rows, HITs,
// assignments, cost, virtual latency) from the query's trace. It is
// most useful once the query has finished; a live query shows the
// progress so far. Empty when tracing is off or the query has left the
// dashboard's window.
func (h *QueryHandle) Explain() string {
	span := h.Trace()
	if span == nil {
		return ""
	}
	return obs.ExplainAnalyze(span)
}

// Engine is a running Qurk instance.
type Engine struct {
	cfg     Config
	catalog *relation.Catalog
	clock   *mturk.Clock
	market  *mturk.Marketplace
	pool    *crowd.Pool     // nil when Config.Pool was supplied
	router  *backend.Router // nil without Config.Backends
	httpBE  *backend.HTTP   // nil unless Backends.HTTP was enabled
	mgr     *taskmgr.Manager
	opt     *optimizer.Optimizer
	store   *store.Store // nil unless Config.StorePath was set
	obs     *obs.Tracer  // nil unless Config.Trace was set
	warm    taskmgr.RestoreSummary
	plans   *planCache
	// planEpoch versions the planning environment (tasks, tables);
	// bumping it orphans every cached plan keyed under the old epoch.
	planEpoch int64
	// The engine's series in the manager's registry, each resolved at
	// its first event: queries started, and how the plan cache served
	// them.
	started, planHits, planMisses, planInvalidations, planSavedNs obs.Ref

	mu     sync.Mutex
	script *qlang.Script
	// queries lists every submitted query in ID order. shown, the
	// dashboard's list, holds the live ones and the last recentQueries
	// finished ones; a finished query that leaves it drops its plan and
	// span, and its join and sort savings move into folded.
	queries []*QueryHandle
	shown   []*QueryHandle
	folded  dashboard.Savings
	nextID  int
	closed  bool
}

// recentQueries is how many finished queries keep their plan and trace
// span for the dashboard, QueryTrace and Explain.
const recentQueries = 64

// New builds and starts an engine; callers must Close it.
func New(cfg Config) (*Engine, error) {
	if inf := cfg.Inference; inf != nil {
		switch strings.ToLower(strings.TrimSpace(inf.Method)) {
		case "", "majority", "em":
		default:
			return nil, fmt.Errorf("core: unknown inference method %q (want majority or em)", inf.Method)
		}
	}
	var pool mturk.WorkerPool
	var simPool *crowd.Pool
	if cfg.Pool != nil {
		pool = cfg.Pool
	} else {
		if cfg.Oracle == nil {
			return nil, fmt.Errorf("core: config needs an Oracle (or a custom Pool)")
		}
		simPool = crowd.NewPool(cfg.Crowd, cfg.Oracle)
		pool = simPool
	}
	clock := mturk.NewClock()
	market := mturk.NewMarketplace(clock, pool)
	var be backend.Backend = backend.NewSim(market)
	var router *backend.Router
	var httpBE *backend.HTTP
	if bc := cfg.Backends; bc != nil {
		members := []backend.Backend{be}
		if bc.LLM.Model != nil {
			members = append(members, backend.NewLLM(clock, bc.LLM))
		}
		if bc.HTTP.BaseURL != "" {
			hcfg := bc.HTTP
			hcfg.Clock = clock
			h, err := backend.NewHTTP(hcfg)
			if err != nil {
				return nil, fmt.Errorf("core: http backend: %v", err)
			}
			httpBE = h
			members = append(members, h)
		}
		dflt := bc.Default
		if dflt == "" {
			dflt = "sim"
		}
		r, err := backend.NewRouter(dflt, members...)
		if err != nil {
			if httpBE != nil {
				httpBE.Close()
			}
			return nil, fmt.Errorf("core: %v", err)
		}
		router = r
		be = r
	}
	mgr := taskmgr.NewWithBackend(be, cache.New(), model.NewRegistry(), budget.NewAccount(cfg.BudgetCents))
	if cfg.MaxInflightHITs > 0 {
		mgr.SetAdmission(cfg.MaxInflightHITs)
	}
	if cfg.Inference != nil {
		mgr.SetInference(cfg.Inference.Method, cfg.Inference.MinAssignments, cfg.Inference.TargetConfidence)
	}
	e := &Engine{
		cfg:     cfg,
		catalog: relation.NewCatalog(),
		clock:   clock,
		market:  market,
		pool:    simPool,
		router:  router,
		httpBE:  httpBE,
		mgr:     mgr,
		opt:     optimizer.New(mgr),
		script:  &qlang.Script{},
		plans:   newPlanCache(),
	}
	if router != nil && cfg.Backends.Route {
		router.SetChooser(e.opt.BackendChooser(e.backendCandidates()))
	}
	if cfg.Trace {
		e.obs = obs.New(clock.Now)
		mgr.SetObs(e.obs)
	}
	if cfg.StorePath != "" {
		st, replayed, err := store.OpenState(cfg.StorePath)
		if err != nil {
			return nil, fmt.Errorf("core: open store: %v", err)
		}
		// Restore what replay found before anything can submit work, and
		// drop it: the store's files are its only copy. Then stream every
		// new learned artifact back to the WAL.
		e.warm = mgr.Restore(replayed)
		mgr.SetJournal(st)
		e.store = st
	}
	go clock.Run(e.stopped)
	return e, nil
}

// backendCandidates describes the configured backends to ChooseBackend:
// the simulated crowd at the default policy price and the optimizer's
// assumed worker accuracy, the LLM crowd at its quoted price with its
// per-kind quality priors (a kind absent from a non-nil Quality map is
// not offered), and the HTTP service at its quoted price.
func (e *Engine) backendCandidates() []optimizer.BackendCandidate {
	bc := e.cfg.Backends
	pol := taskmgr.DefaultPolicy()
	cands := []optimizer.BackendCandidate{
		{Name: "sim", PriceCents: pol.PriceCents, Quality: e.opt.WorkerAccuracy},
	}
	if bc.LLM.Model != nil {
		price := bc.LLM.PriceCents
		if price <= 0 {
			price = pol.PriceCents
		}
		if len(bc.LLM.Quality) == 0 {
			cands = append(cands, optimizer.BackendCandidate{
				Name: "llm", PriceCents: price, Quality: e.opt.WorkerAccuracy,
			})
		} else {
			kinds := make([]qlang.TaskType, 0, len(bc.LLM.Quality))
			for k := range bc.LLM.Quality {
				kinds = append(kinds, k)
			}
			sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
			for _, k := range kinds {
				cands = append(cands, optimizer.BackendCandidate{
					Name: "llm", PriceCents: price,
					Quality: bc.LLM.Quality[k], Kinds: []qlang.TaskType{k},
				})
			}
		}
	}
	if bc.HTTP.BaseURL != "" {
		price := bc.HTTP.PriceCents
		if price <= 0 {
			price = pol.PriceCents
		}
		cands = append(cands, optimizer.BackendCandidate{
			Name: "http", PriceCents: price, Quality: e.opt.WorkerAccuracy,
		})
	}
	return cands
}

func (e *Engine) stopped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Close shuts the engine down. In-flight queries are canceled (their
// Rows streams end with ErrCanceled, open HITs are expired and unspent
// budget released), so no operator or watcher goroutine outlives Close.
// With a store configured, buffered knowledge records are drained and
// synced before Close returns, so the next engine replays everything
// this one learned.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	// Every live query is shown; the rest are over and have retired.
	queries := append([]*QueryHandle(nil), e.shown...)
	e.mu.Unlock()
	for _, h := range queries {
		h.Exec.Cancel(fmt.Errorf("%w: engine closed", qerr.ErrCanceled))
	}
	for _, h := range queries {
		<-h.Exec.Done()
	}
	e.clock.Close()
	if e.httpBE != nil {
		e.httpBE.Close()
	}
	if e.store != nil {
		e.store.Close()
	}
}

// Catalog exposes table registration.
func (e *Engine) Catalog() *relation.Catalog { return e.catalog }

// Manager exposes the task manager (policies, cache, models, budget).
func (e *Engine) Manager() *taskmgr.Manager { return e.mgr }

// Marketplace exposes the simulated MTurk (dashboard, audience tasks).
func (e *Engine) Marketplace() *mturk.Marketplace { return e.market }

// Optimizer exposes the tuning component.
func (e *Engine) Optimizer() *optimizer.Optimizer { return e.opt }

// Router exposes the worker-backend router (nil when the engine runs on
// the plain simulated marketplace without Config.Backends).
func (e *Engine) Router() *backend.Router { return e.router }

// Clock exposes virtual time.
func (e *Engine) Clock() *mturk.Clock { return e.clock }

// Pool returns the simulated crowd, or nil when a custom pool is used.
func (e *Engine) Pool() *crowd.Pool { return e.pool }

// Register adds a table to the catalog. Registering bumps the plan-cache
// epoch: cached Scan nodes pin table identities, so a new table under a
// previously missing (or differently shaped) name must not resolve
// through a stale plan.
func (e *Engine) Register(t *relation.Table) error {
	if err := e.catalog.Register(t); err != nil {
		return err
	}
	atomic.AddInt64(&e.planEpoch, 1)
	return nil
}

// LoadCSV registers a table parsed from CSV.
func (e *Engine) LoadCSV(name string, r io.Reader) (*relation.Table, error) {
	t, err := relation.LoadCSV(name, r)
	if err != nil {
		return nil, err
	}
	if err := e.Register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Define parses TASK definitions (and ignores any queries) and registers
// them with the engine, applying auto-tuning and model attachment.
func (e *Engine) Define(src string) error {
	script, err := qlang.Parse(src)
	if err != nil {
		return err
	}
	return e.defineTasks(script.Tasks)
}

func (e *Engine) defineTasks(defs []*qlang.TaskDef) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(defs) > 0 {
		// New tasks change what the planner can resolve; orphan every
		// cached plan keyed under the old environment.
		atomic.AddInt64(&e.planEpoch, 1)
	}
	for _, def := range defs {
		if _, dup := e.script.Task(def.Name); dup {
			return fmt.Errorf("core: task %q already defined", def.Name)
		}
		if def.Backend != "" {
			if e.router == nil {
				return fmt.Errorf("core: task %q pins backend %q but no backend router is configured", def.Name, def.Backend)
			}
			if err := e.router.Pin(def.Name, def.Backend); err != nil {
				return fmt.Errorf("core: task %q: %v", def.Name, err)
			}
		}
		e.script.Tasks = append(e.script.Tasks, def)
		if e.cfg.AutoTune {
			e.mgr.SetPolicy(def.Name, e.opt.PolicyFor(def))
		}
		if e.cfg.AttachModels && isBoolean(def) {
			minEx := e.cfg.ModelMinExamples
			if minEx == 0 {
				minEx = 30
			}
			minConf := e.cfg.ModelMinConfidence
			if minConf == 0 {
				minConf = 0.85
			}
			e.mgr.Models().Attach(model.NewTaskModel(def.Name, model.NewNaiveBayes(), minEx, minConf))
		}
	}
	return nil
}

func isBoolean(def *qlang.TaskDef) bool {
	return len(def.Returns) == 1 && def.Returns[0].Name == "" &&
		def.Returns[0].Kind == relation.KindBool
}

// Tasks returns the currently defined tasks.
func (e *Engine) Tasks() []*qlang.TaskDef {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*qlang.TaskDef(nil), e.script.Tasks...)
}

// RunScript executes a full script: TASK definitions first, then every
// query, returning one handle per query.
func (e *Engine) RunScript(src string) ([]*QueryHandle, error) {
	script, err := qlang.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := e.defineTasks(script.Tasks); err != nil {
		return nil, err
	}
	var handles []*QueryHandle
	for _, stmt := range script.Queries {
		sql := stmt.String()
		p, err := e.prepare(sql, stmt, queryOptions{})
		if err != nil {
			return handles, err
		}
		h, err := e.startQuery(context.Background(), sql, p, queryOptions{})
		if err != nil {
			return handles, err
		}
		handles = append(handles, h)
	}
	return handles, nil
}

// adaptiveJoins reports whether cost-based join pre-filtering applies to
// a query with options o.
func (e *Engine) adaptiveJoins(o queryOptions) bool {
	if o.adaptive != nil {
		return *o.adaptive
	}
	return e.cfg.AdaptiveJoins
}

// startQuery plans and launches one SELECT, through the front end as
// prepare left it, under a context and per-query options; every public
// query entry point funnels through it.
func (e *Engine) startQuery(ctx context.Context, sql string, p planned, o queryOptions) (*QueryHandle, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: engine closed")
	}
	script := e.script
	e.mu.Unlock()

	cfg := e.cfg.Exec
	cfg.Mgr = e.mgr
	cfg.Script = script
	cfg.Now = e.clock.Now
	if cfg.RankStrategy == nil {
		// Human-powered sorts run under the cost-chosen strategy:
		// compare vs rate vs hybrid, priced from policies and live
		// (or store-replayed) statistics.
		cfg.RankStrategy = e.opt.RankChooser()
	}

	// The scope carries this query's overrides and is what cancellation
	// propagates through: exec → taskmgr → marketplace.
	scope := e.mgr.NewScope()
	if o.budgetCents > 0 {
		scope.SetBudget(o.budgetCents)
	}
	for task, pol := range o.policies {
		scope.SetPolicy(task, pol)
	}
	if o.priority != 0 {
		scope.SetPriority(o.priority)
	}
	if o.shared {
		scope.SetShared(true)
	}
	if o.weight > 0 {
		scope.SetWeight(o.weight)
	}
	if o.label != "" {
		scope.SetLabel(o.label)
	}
	cfg.Scope = scope

	e.count(&e.started, obs.MetricQueries, 1)
	// Tracing: one root span per query; the scope carries it so
	// cancellation can close the whole tree, operators and HITs hang
	// their children off it via cfg.Trace and Request.Trace.
	var root *obs.Span
	if tr := e.obs; tr != nil {
		root = tr.StartRoot(obs.KindQuery, sql)
		scope.SetSpan(root)
		cfg.Trace = root
	}
	abandonTrace := func() {
		if root != nil {
			root.CloseTree()
			e.obs.Release(root)
		}
	}

	if e.cfg.AdaptiveFilters && cfg.FilterOrder == nil {
		cfg.FilterOrder = e.opt.FilterOrder(script)
	}
	adaptive := e.adaptiveJoins(o)
	var decide plan.PreFilterDecider
	if adaptive {
		decide = e.opt.PreFilterDeciderFor(cfg)
		if cfg.PreFilterKeep == nil {
			cfg.PreFilterKeep = e.opt.PreFilterKeepFor(cfg)
		}
	}
	var planSpan *obs.Span
	if root != nil {
		planSpan = root.Child(obs.KindPlan, "plan")
	}
	prog, vals, outcome, err := e.buildPlan(p, script, adaptive, decide)
	if err != nil {
		abandonTrace()
		return nil, err
	}
	if planSpan != nil {
		planSpan.Annotate("plan_cache", outcome)
		planSpan.End()
	}
	// Starting is one virtual instant: the pump must not step between
	// the executor's first submissions and StartedAt or the deadline
	// being stamped.
	gate := e.clock.Gate()
	gate.Hold()
	defer gate.Release()
	q, err := prog.StartContext(ctx, vals, cfg)
	if err != nil {
		abandonTrace()
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		// Close raced the start; terminate the fresh query the way Close
		// would have.
		e.mu.Unlock()
		q.Cancel(fmt.Errorf("%w: engine closed", qerr.ErrCanceled))
		return nil, fmt.Errorf("core: engine closed")
	}
	e.nextID++
	h := &QueryHandle{
		ID: e.nextID, SQL: sql, Plan: q.Plan(), Exec: q,
		StartedAt: e.clock.Now(), scope: scope,
	}
	h.span.Store(root)
	e.queries = append(e.queries, h)
	e.shown = append(e.shown, h)
	e.trimLocked()
	e.mu.Unlock()
	if o.deadline > 0 {
		// Virtual-time deadline: the clock fires it at simulated
		// now+deadline, deterministic under the event pump.
		e.clock.Schedule(o.deadline, func() { q.Cancel(qerr.ErrDeadline) })
	}
	return h, nil
}

// Queries lists every submitted query's handle, in ID order. A handle
// whose query has left the dashboard's window still answers SunkCents,
// Err and its Exec stats exactly; its Plan and Trace are nil.
func (e *Engine) Queries() []*QueryHandle {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*QueryHandle(nil), e.queries...)
}

// trimLocked keeps shown to the live queries and the last recentQueries
// finished ones. Each older finished query drops its plan and span
// (its executor keeps the plan only when other queries share it), and
// its savings are added to folded, priced at the policies in force as
// it leaves. Callers hold e.mu.
func (e *Engine) trimLocked() {
	kept, finished := len(e.shown), 0
	for i := len(e.shown) - 1; i >= 0; i-- {
		h := e.shown[i]
		if h.Exec.Retired() {
			if finished++; finished > recentQueries {
				e.addSavings(&e.folded, h.Exec, e.policyLocked)
				h.Plan = nil
				h.Exec.ReleasePlan()
				h.span.Store(nil)
				continue
			}
		}
		kept--
		e.shown[kept] = h
	}
	n := copy(e.shown, e.shown[kept:])
	clear(e.shown[n:])
	e.shown = e.shown[:n]
}

// policyLocked returns the named task's policy. Callers hold e.mu.
func (e *Engine) policyLocked(task string) taskmgr.Policy {
	def, ok := e.script.Task(task)
	if !ok {
		return taskmgr.DefaultPolicy()
	}
	return e.mgr.PolicyFor(def)
}

// addSavings adds one query's join and sort savings to s. Join savings
// are the cross-product pairs its pre-filter stages kept away from
// workers, priced at the join task's per-pair share of a grid HIT. Sort
// savings are the comparison HITs its chosen strategies avoided against
// the all-pairs compare baseline, priced at the comparison (or, lacking
// one, the rating) task's policy.
func (e *Engine) addSavings(s *dashboard.Savings, q *exec.Query, policyFor func(string) taskmgr.Policy) {
	lb, rb := e.cfg.Exec.JoinGrid()
	for _, red := range q.JoinReductions() {
		s.JoinPairsAvoided += red.PairsAvoided
		pol := policyFor(red.Task)
		perPair := float64(pol.PriceCents) * float64(pol.Assignments) / float64(lb*rb)
		s.JoinSavedCents += budget.Cents(float64(red.PairsAvoided) * perPair)
	}
	for _, rs := range q.RankStats() {
		taskName := rs.Task
		if rs.CompareTask != "" {
			taskName = rs.CompareTask
		}
		pol := policyFor(taskName).Clamped()
		perHIT := budget.Cents(pol.PriceCents * int64(pol.Assignments))
		baseline := int64(rank.CompareHITCount(rs.Items, rs.GroupSize, 0))
		s.SortCompareHITs += int64(rs.CompareHITs)
		if rs.RateAsks > 0 {
			ratePol := policyFor(rs.Task).Clamped()
			s.SortRateHITs += int64(rank.RateHITCount(rs.RateAsks, ratePol.BatchSize))
		}
		if avoided := baseline - int64(rs.CompareHITs); avoided > 0 && rs.CompareTask != "" {
			s.SortSavedCents += budget.Cents(avoided) * perHIT
		}
	}
}

// PlanCacheStats reports the normalized-SQL plan cache's counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          e.planHits.Value(),
		Misses:        e.planMisses.Value(),
		Invalidations: e.planInvalidations.Value(),
		SavedMs:       float64(e.planSavedNs.Value()) / 1e6,
	}
}

// Store returns the durable knowledge store, or nil when none is
// configured.
func (e *Engine) Store() *store.Store { return e.store }

// Tracer returns the engine's span tracer, or nil when Config.Trace is
// off.
func (e *Engine) Tracer() *obs.Tracer { return e.obs }

// count adds n to the engine's series ref of the counter family name.
func (e *Engine) count(ref *obs.Ref, name string, n int64) {
	ref.Counter(e.mgr.Metrics(), name).Add(n)
}

// Metrics returns the engine's metrics registry, which is always on,
// whether or not Config.Trace is set: the counters behind the
// dashboard, Manager.Stats, PlanCacheStats and /metrics. WritePrometheus
// renders it in a fixed order, and every series but the planning time
// the plan cache saved (wall time) is a pure function of the seed.
func (e *Engine) Metrics() *obs.Registry { return e.mgr.Metrics() }

// QueryTrace returns the root span of the query with the given ID, or
// nil when tracing is off, no such query was submitted, or the query has
// left the dashboard's window.
func (e *Engine) QueryTrace(id int) *obs.Span {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.trimLocked()
	for _, h := range e.shown {
		if h.ID == id {
			return h.Trace()
		}
	}
	return nil
}

// WarmStart reports what the store replayed at engine start.
func (e *Engine) WarmStart() taskmgr.RestoreSummary { return e.warm }

// Snapshot builds the dashboard view (Figure 2). Its query list holds
// the live queries and the last 64 finished ones; its join and sort
// savings add the totals folded in from older queries to those of the
// listed ones. A render costs O(live + 64), however many queries the
// engine has run.
func (e *Engine) Snapshot() dashboard.Snapshot {
	tasks := e.mgr.Stats()
	account := e.mgr.Account()
	snap := dashboard.Snapshot{
		NowMinutes: e.clock.Now().Minutes(),
		Budget: dashboard.BudgetInfo{
			Limit:     account.Limit(),
			Spent:     account.Spent(),
			Remaining: account.Remaining(),
		},
		Market:    e.market.Stats(),
		Tasks:     tasks,
		Cache:     e.mgr.Cache().Stats(),
		PlanCache: e.PlanCacheStats(),
		Inference: e.mgr.InferenceStats(),
	}
	if e.router != nil {
		counts, saved := e.router.Counts()
		for _, name := range e.router.Members() {
			snap.Backends.Counts = append(snap.Backends.Counts,
				dashboard.BackendCount{Name: name, HITs: counts[name]})
		}
		snap.Backends.SavedCents = saved
	}
	for _, m := range e.mgr.Models().All() {
		snap.Models = append(snap.Models, m.Stats())
	}
	if quals := e.mgr.WorkerQualities(); len(quals) > 0 {
		if len(quals) > 8 {
			quals = quals[:8]
		}
		snap.Workers = quals
	}
	policyFor := func(task string) taskmgr.Policy {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.policyLocked(task)
	}
	// The list and the folded totals are read together, so every query's
	// savings count exactly once.
	type shownQuery struct {
		h    *QueryHandle
		plan plan.Node
	}
	e.mu.Lock()
	e.trimLocked()
	shown := make([]shownQuery, len(e.shown))
	for i, h := range e.shown {
		shown[i] = shownQuery{h, h.Plan}
	}
	folded := e.folded
	e.mu.Unlock()
	snap.Savings = dashboard.ComputeSavings(tasks, policyFor)
	snap.Savings.JoinPairsAvoided = folded.JoinPairsAvoided
	snap.Savings.JoinSavedCents = folded.JoinSavedCents
	snap.Savings.SortCompareHITs = folded.SortCompareHITs
	snap.Savings.SortRateHITs = folded.SortRateHITs
	snap.Savings.SortSavedCents = folded.SortSavedCents
	for _, sq := range shown {
		e.addSavings(&snap.Savings, sq.h.Exec, policyFor)
	}
	if sh := e.mgr.Sharing(); sh.SharedHITs > 0 {
		snap.Savings.SharedHITs = sh.SharedHITs
		snap.Savings.SharedItems = sh.CoBatchedItems
		snap.Savings.SharedSavedCents = sh.SavedCents
	}
	if e.store != nil {
		snap.Warmstart = dashboard.WarmstartInfo{
			Answers:      e.warm.CacheAnswers,
			Entries:      e.warm.CacheEntries,
			Observations: e.warm.Observations,
		}
		// Price each replayed entry at its task's policy: one batched
		// redundant question that did not have to be re-asked. Join
		// predicates are bought as grid HITs, so a cached pair costs a
		// per-pair share of the grid (mirroring addSavings), not a
		// whole batched question.
		lb, rb := e.cfg.Exec.JoinGrid()
		for task, entries := range e.warm.EntriesByTask {
			e.mu.Lock()
			def, ok := e.script.Task(task)
			e.mu.Unlock()
			pol := taskmgr.DefaultPolicy()
			if ok {
				pol = e.mgr.PolicyFor(def)
			}
			pol = pol.Clamped()
			perEntry := float64(pol.PriceCents) * float64(pol.Assignments) / float64(pol.BatchSize)
			if ok && def.Type == qlang.TaskJoinPredicate {
				perEntry = float64(pol.PriceCents) * float64(pol.Assignments) / float64(lb*rb)
			}
			snap.Warmstart.SavedCents += budget.Cents(float64(entries) * perEntry)
		}
	}
	snap.EstimatedRemainingCents = e.mgr.EstimatedRemainingCents()
	now := e.clock.Now()
	for _, sq := range shown {
		h := sq.h
		done := h.Exec.Result().Closed()
		snap.Queries = append(snap.Queries, dashboard.QueryInfo{
			ID:          h.ID,
			SQL:         h.SQL,
			PlanExplain: plan.Explain(sq.plan),
			Ops:         h.Exec.OpStats(),
			Done:        done,
			Canceled:    h.Exec.Canceled(),
			SunkCents:   h.scope.Spent(),
			Results:     h.Exec.Result().Len(),
			ElapsedMin:  (now - h.StartedAt).Minutes(),
			Errors:      int(h.Exec.ErrorCount()),
		})
	}
	return snap
}
