// Package taskmgr implements Qurk's Task Manager (paper §2): it keeps the
// global queue of tasks enqueued by all operators, batches tasks into
// HITs (tuple batching and operator grouping), prices and posts them via
// the marketplace, consults the Task Cache before spending money, lets a
// confidence-gated Task Model answer in place of humans, reduces the
// multi-answer lists redundancy produces, and feeds the Statistics
// Manager's estimators.
//
// Concurrency: the manager has no global lock on its hot paths. Each
// task's batching state carries its own mutex, in-flight HIT collection
// state is striped by HIT ID (flightTable), and the manager-level mutex
// guards only the task registry and base policy. Assignment completions
// for different HITs therefore never contend, matching the sharded
// marketplace underneath (see internal/mturk's package comment).
//
// Determinism: every finalization resolves its batched items in the
// HIT's item order (never map order), so a completed HIT triggers
// downstream work in the same order on every run.
package taskmgr

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/hit"
	"repro/internal/infer"
	"repro/internal/model"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/store"
)

// Policy tunes how one task's applications become HITs. The optimizer
// sets it; TASK-definition overrides (Price/Assignments/Batch) win.
type Policy struct {
	// Assignments is the redundancy per HIT (default 3).
	Assignments int
	// MinAssignments, when positive and below Assignments, opts HITs
	// into adaptive redundancy under an EM aggregator: they post with
	// this many assignments and extend one at a time (up to
	// Assignments) while the answer posterior stays unsure. Zero posts
	// at Assignments directly — the fixed-redundancy default.
	MinAssignments int
	// BatchSize is how many tuples share one HIT (default 1).
	BatchSize int
	// PriceCents is the reward per HIT (default 1).
	PriceCents int64
	// Linger is how long (virtual) a partial batch waits before being
	// flushed anyway (default 1 minute).
	Linger time.Duration
	// UseCache consults/updates the Task Cache (default true; zero
	// value of the struct disables nothing — see DefaultPolicy).
	UseCache bool
	// UseModel lets an attached Task Model answer boolean tasks.
	UseModel bool
	// TrainModel feeds human answers to the attached model.
	TrainModel bool
}

// DefaultPolicy is the engine-wide starting point.
func DefaultPolicy() Policy {
	return Policy{
		Assignments: 3,
		BatchSize:   1,
		PriceCents:  1,
		Linger:      time.Minute,
		UseCache:    true,
		UseModel:    true,
		TrainModel:  true,
	}
}

// Clamped floors the posting knobs (assignments, batch and price are
// all at least 1) the way the manager does before using a policy. The
// optimizer's cost arithmetic applies the same clamp so its divisions
// and estimates always match actual posting behavior.
func (p Policy) Clamped() Policy {
	if p.Assignments < 1 {
		p.Assignments = 1
	}
	if p.MinAssignments < 0 {
		p.MinAssignments = 0
	}
	if p.BatchSize < 1 {
		p.BatchSize = 1
	}
	if p.PriceCents < 1 {
		p.PriceCents = 1
	}
	return p
}

// merged applies TASK-definition overrides to the policy.
func (p Policy) merged(def *qlang.TaskDef) Policy {
	if def.Assignments > 0 {
		p.Assignments = def.Assignments
	}
	if def.MinAssignments > 0 {
		p.MinAssignments = def.MinAssignments
	}
	if def.BatchSize > 0 {
		p.BatchSize = def.BatchSize
	}
	if def.PriceCents > 0 {
		p.PriceCents = def.PriceCents
	}
	if p.Assignments < 1 {
		p.Assignments = 1
	}
	if p.BatchSize < 1 {
		p.BatchSize = 1
	}
	return p
}

// Outcome is the resolved result of one submitted task application.
type Outcome struct {
	// Value is the reduced answer (majority vote / mean, by task type).
	Value relation.Value
	// Answers are the raw per-assignment answers (paper §3's list).
	Answers []relation.Value
	// Agreement is the majority share across assignments.
	Agreement float64
	// FromCache and FromModel mark answers that cost no HIT.
	FromCache bool
	FromModel bool
	// Err is set when the task could not be completed (budget/market).
	Err error
}

// Join-side tags for Request.StatSide: a pre-filter stage says which
// input of its join it protects, so the Statistics Manager can keep a
// selectivity estimate per (task, side) — the resolution the planner
// needs to wrap only the profitable side.
const (
	SideLeft  = "left"
	SideRight = "right"
)

// Request is one logical task application submitted by an operator.
type Request struct {
	Def  *qlang.TaskDef
	Args []relation.Value
	// Prompt overrides the rendered instruction (used by grouped HITs);
	// empty means render from the task definition.
	Prompt string
	// Assignments overrides the policy's redundancy for this request
	// (0 = use policy). POSSIBLY predicates use 1.
	Assignments int
	// StatSide tags a boolean outcome with the join side it was observed
	// on (SideLeft/SideRight, "" = untagged): the observation feeds both
	// the task's combined selectivity estimator and the per-side one.
	StatSide string
	// Scope binds the request to one query's cancellation scope (nil =
	// unscoped). A canceled scope resolves the request immediately with
	// the cause; items of different scopes never share a HIT.
	Scope *Scope
	// Done receives the outcome; it is called exactly once, possibly
	// synchronously (cache/model hits) and possibly from the clock
	// goroutine.
	Done func(Outcome)
	// Trace, when tracing is enabled, is the submitting operator's span:
	// cache/model short-circuits and batch/HIT lifecycle counters
	// accumulate onto it. Nil (the default, and always when tracing is
	// off) costs nothing.
	Trace *obs.Span
}

// TaskStats aggregates one task's activity for the optimizer and
// dashboard.
type TaskStats struct {
	Task           string
	Submitted      int64
	HITsPosted     int64
	QuestionsAsked int64 // questions sent to humans (≥ HITs when batching)
	CacheHits      int64
	ModelAnswers   int64
	SpentCents     budget.Cents
	Selectivity    float64 // boolean tasks: pass rate estimate
	SelTrials      int
	MeanLatencyMin float64 // EWMA of HIT completion latency
	MeanAgreement  float64
}

// taskState is one task's batching and accounting state. mu guards the
// plain fields; the stats estimators are internally synchronized and may
// be observed without it.
type taskState struct {
	mu           sync.Mutex
	name         string // registry key (lowercased task name)
	def          *qlang.TaskDef
	policy       Policy
	hasOwnPolicy bool

	pending     []pendingItem // waiting to fill a batch
	lingerArmed bool

	submitted      int64
	hitsPosted     int64
	questionsAsked int64
	cacheHits      int64
	modelAnswers   int64
	spent          budget.Cents

	selectivity stats.Selectivity
	// sideSel holds per-join-side selectivity estimators keyed by
	// SideLeft/SideRight; created lazily, guarded by mu (the estimators
	// themselves are internally synchronized).
	sideSel   map[string]*stats.Selectivity
	latency   *stats.EWMA
	agreement *stats.EWMA
	// rankAgr tracks mean pairwise agreement across this task's
	// comparison (Order) HITs; created lazily, guarded by mu like
	// sideSel (the estimator itself is internally synchronized).
	rankAgr *stats.EWMA
}

// rankAgreementEstimator lazily creates the comparison-agreement EWMA.
func (st *taskState) rankAgreementEstimator() *stats.EWMA {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.rankAgr == nil {
		st.rankAgr = stats.NewEWMA(stats.TaskEWMAAlpha)
	}
	return st.rankAgr
}

// observeSelectivity records one boolean outcome into the task's
// combined estimator and, when side is tagged, the per-side estimator.
func (st *taskState) observeSelectivity(pass bool, side string) {
	st.selectivity.Observe(pass)
	if side == "" {
		return
	}
	st.sideEstimator(side).Observe(pass)
}

func (st *taskState) sideEstimator(side string) *stats.Selectivity {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sideSel == nil {
		st.sideSel = make(map[string]*stats.Selectivity)
	}
	est := st.sideSel[side]
	if est == nil {
		est = &stats.Selectivity{}
		st.sideSel[side] = est
	}
	return est
}

type pendingItem struct {
	key         string
	args        []relation.Value
	ckey        cache.Key // task cache key, encoded once at submission
	prompt      string
	def         *qlang.TaskDef
	assignments int    // 0 = policy default
	side        string // join-side tag for selectivity observations
	scope       *Scope // owning query scope (nil = unscoped)
	priority    int    // scope priority at submission time
	shared      bool   // may co-batch with other sharing scopes
	detached    bool   // in flight: its scope left the shared HIT, and it already resolved
	done        func(Outcome)
	addedAt     mturk.VirtualTime
	span        *obs.Span // submitting operator's trace span (nil = tracing off)
}

// flightStripes is the number of lock stripes for in-flight HIT state.
const flightStripes = 16

// flightStripe holds the in-flight HITs whose IDs hash to it.
type flightStripe struct {
	mu    sync.Mutex
	hits  map[string]*inflightHIT
	joins map[string]*joinInflight
	ranks map[string]*rankInflight
}

// flightTable stripes in-flight collection state by HIT ID, mirroring
// the marketplace's shards: completions of different HITs take
// different locks.
type flightTable struct {
	stripes [flightStripes]flightStripe
}

func (t *flightTable) stripeFor(hitID string) *flightStripe {
	return &t.stripes[mturk.ShardIndex(hitID, flightStripes)]
}

// Manager routes task applications to the cache, the model, or batched
// HITs on the marketplace.
type Manager struct {
	market  backend.Backend
	cache   *cache.Cache
	models  *model.Registry
	account *budget.Account

	// book aggregates per-(backend, task kind) price/latency/quality
	// observations from finalized HITs; the optimizer's ChooseBackend
	// reads it to route work where the evidence says it is cheapest.
	book *stats.BackendBook

	// mu guards tasks and base only; it is never held across calls into
	// the marketplace, cache, or per-task state.
	mu    sync.Mutex
	tasks map[string]*taskState
	// spelled indexes the same states by every spelling callers have
	// used, so the hot paths resolve "isCat" without lower-casing it.
	spelled map[string]*taskState
	base    Policy

	nextKey atomic.Int64
	flights flightTable

	// sched orders batch posting across scopes (priority, then weighted
	// fair share) behind an optional max-in-flight admission gate.
	sched scheduler

	// postHook, when set (by tests), can fail a post before it reaches
	// the marketplace, exercising the refund paths deterministically.
	postHook atomic.Pointer[func(h *hit.HIT) error]

	// Cross-query sharing counters (see Sharing).
	sharedHITs  atomic.Int64
	sharedItems atomic.Int64
	sharedSaved atomic.Int64 // HITs avoided (scopes−1 per shared HIT)
	savedCents  atomic.Int64 // those HITs priced at their actual cost

	// journal, when set, receives a durable record for every learned
	// artifact produced on the paid (human) paths: cache entries,
	// selectivity/latency/agreement observations, model training
	// examples and reputation votes. Appends are asynchronous inside the
	// store and the pointer is read atomically, so finalizations never
	// block on persistence.
	journal atomic.Pointer[Journal]

	// tracer, when set (SetObs), receives span trees and metrics for
	// every batching, posting and finalization event. Read atomically
	// like the journal: the disabled path costs one load per site.
	tracer atomic.Pointer[obs.Tracer]

	// workers tracks agreement-based reputation and quality the
	// per-worker EM-accuracy EWMAs, both guarded by repMu — not m.mu —
	// because the marketplace's worker filter reads them from inside
	// marketplace calls (reputation.go, adaptive.go).
	repMu   sync.Mutex
	workers map[string]*workerRecord
	quality map[string]*stats.EWMA

	// inference is the engine-wide answer-inference configuration
	// (SetInference); nil means majority voting, the seed default.
	// extendBroken flips once a backend rejects ExtendAssignments —
	// adaptive-eligible batches then post at the full cap instead of
	// buying assignments the backend cannot deliver.
	inference    atomic.Pointer[inferConfig]
	extendBroken atomic.Bool

	// Adaptive redundancy counters (see InferenceStats).
	adaptiveHITs   atomic.Int64
	adaptiveExt    atomic.Int64
	extendFailures atomic.Int64
	adaptiveAssign atomic.Int64
	adaptiveCapSum atomic.Int64
	inferSaved     atomic.Int64
}

// Journal receives the records the manager emits on its learning paths;
// *store.Store implements it. Append must not block.
type Journal interface {
	Append(rec store.Record)
}

// SetJournal installs (or, with nil, removes) the record sink.
func (m *Manager) SetJournal(j Journal) {
	if j == nil {
		m.journal.Store(nil)
		return
	}
	m.journal.Store(&j)
}

func (m *Manager) getJournal() Journal {
	if p := m.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// hitShare is one scope's stake in a (possibly shared) HIT: how many of
// its items the HIT carries and the slice of the HIT cost it was
// charged. The items themselves are found by scope in the HIT's item
// slots. cost is maintained as charged-and-not-yet-refunded, so detach
// and expiry refunds can never double-pay; mutations after posting
// happen under the HIT's stripe lock.
type hitShare struct {
	scope    *Scope
	items    int
	cost     budget.Cents
	detached bool
}

// inflightHIT is one posted batch or group HIT while it collects
// assignments. Its items are held by position: item i is hit.Items[i],
// items[i] (the pending item that asked, with its Done callback) and
// answers[i] (the raw answers in arrival order), from the cut until the
// item resolves, so no path looks an item up by key. A scope that
// withdraws from a shared HIT marks its items detached under the
// stripe lock; finalization, the all-failed path and the EM vote
// builder skip them.
type inflightHIT struct {
	hit      *hit.HIT
	state    *taskState
	shares   []hitShare   // per-scope stakes; one entry for unshared HITs
	cost     budget.Cents // total charged at post time (sum of shares)
	items    []pendingItem
	answers  [][]relation.Value
	byWorker []hit.Answers
	received int
	needed   int
	assign   int  // assignments at post time; basis for pro-rata refunds
	admitted bool // holds an admission-scheduler slot until retired
	postedAt mturk.VirtualTime
	backend  string // serving backend name, recorded at post time
	group    bool   // finalize with per-item task attribution

	// Adaptive redundancy (adaptive.go). agg is non-nil only when an EM
	// aggregator resolves this HIT's answers; adaptive marks HITs posted
	// below capA whose completions may buy further assignments.
	agg      infer.Aggregator
	adaptive bool
	boolTask bool    // boolean vs categorical EM model
	target   float64 // posterior confidence that stops extending
	capA     int     // policy assignment cap for this batch

	// Tracing (obs.go): span is the HIT's trace span (nil when tracing
	// was off at post time), opSpans the distinct submitting operator
	// spans (HIT/cost attribution), extSpans the adaptive extension
	// spans in purchase order. span and opSpans are fixed before the
	// HIT becomes visible to completions; extSpans appends take the
	// stripe lock.
	span     *obs.Span
	opSpans  []*obs.Span
	extSpans []*obs.Span
}

// answerSlots pre-sizes n items' answer lists from one backing array.
// Each list is capped at the assignment cap, so an append past it — a
// Done callback may append to its Outcome.Answers, and an adaptive HIT
// never exceeds the cap — reallocates instead of writing into the
// neighbouring item's answers.
func answerSlots(n, capA int) [][]relation.Value {
	answers := make([][]relation.Value, n)
	backing := make([]relation.Value, n*capA)
	for i := range answers {
		answers[i], backing = backing[:0:capA], backing[capA:]
	}
	return answers
}

// unregister forgets the HIT at every participating scope.
func (fl *inflightHIT) unregister(hitID string) {
	for i := range fl.shares {
		fl.shares[i].scope.unregisterHIT(hitID)
	}
}

// New wires a manager to the simulated marketplace. models may be nil
// (no automation); account may be nil (unlimited budget).
func New(market *mturk.Marketplace, c *cache.Cache, models *model.Registry, account *budget.Account) *Manager {
	return NewWithBackend(backend.NewSim(market), c, models, account)
}

// NewWithBackend wires a manager to any worker backend — the simulator,
// the HTTP driver, the LLM crowd, or a router mixing them per task.
func NewWithBackend(be backend.Backend, c *cache.Cache, models *model.Registry, account *budget.Account) *Manager {
	if c == nil {
		c = cache.New()
	}
	if models == nil {
		models = model.NewRegistry()
	}
	if account == nil {
		account = budget.NewAccount(0)
	}
	m := &Manager{
		market:  be,
		cache:   c,
		models:  models,
		account: account,
		book:    stats.NewBackendBook(),
		tasks:   make(map[string]*taskState),
		spelled: make(map[string]*taskState),
		base:    DefaultPolicy(),
	}
	// Assignments can fail terminally (no eligible worker after all
	// retries, e.g. a blocklist starving a small pool). The manager
	// must still resolve the affected items: with fewer votes if some
	// arrived, or with an error if none ever will.
	be.SetErrorHandler(m.onAssignmentFailed)
	return m
}

// Backend returns the worker backend the manager posts to.
func (m *Manager) Backend() backend.Backend { return m.market }

// BackendBook returns the per-(backend, task kind) observation book.
func (m *Manager) BackendBook() *stats.BackendBook { return m.book }

// priceFor returns the per-assignment reward one HIT of def will pay
// under pol: the policy price unless the serving backend quotes its own.
func (m *Manager) priceFor(def *qlang.TaskDef, pol Policy) int64 {
	return backend.Quote(m.market, def.Name, def.Type, pol.PriceCents)
}

// servingBackend names the backend that will answer def's next HIT.
func (m *Manager) servingBackend(def *qlang.TaskDef) string {
	return backend.ServingName(m.market, def.Name, def.Type)
}

// observeBackend folds one finalized HIT into the backend book and the
// journal: per-assignment price, post-to-done latency, and mean
// majority-agreement quality across the HIT's items.
func (m *Manager) observeBackend(name string, tt qlang.TaskType, rewardCents int64, latencyMin, quality float64) {
	if name == "" {
		return
	}
	m.book.Observe(name, tt.String(), float64(rewardCents), latencyMin, quality)
	if j := m.getJournal(); j != nil {
		j.Append(store.Record{
			Kind: store.KindBackendObs, Task: name, Side: tt.String(),
			X: latencyMin, Y: quality, M: rewardCents,
		})
	}
}

// onAssignmentFailed reduces an inflight HIT's expected assignment count;
// when nothing more can arrive the HIT finalizes with whatever it has.
func (m *Manager) onAssignmentFailed(hitID string, err error) {
	s := m.flights.stripeFor(hitID)
	s.mu.Lock()
	if fl, ok := s.hits[hitID]; ok {
		fl.needed--
		if fl.received < fl.needed {
			s.mu.Unlock()
			return
		}
		delete(s.hits, hitID)
		s.mu.Unlock()
		fl.unregister(hitID)
		m.hitRetired(fl)
		defer m.disposeRetired(hitID)
		if fl.received == 0 {
			m.traceHITAbandoned(fl, err)
			for i := range fl.items {
				if item := &fl.items[i]; !item.detached {
					item.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %v", fl.hit.Task, err)})
				}
			}
			return
		}
		m.finalizeInflight(fl)
		return
	}
	if fl, ok := s.joins[hitID]; ok {
		fl.needed--
		if fl.received < fl.needed {
			s.mu.Unlock()
			return
		}
		delete(s.joins, hitID)
		s.mu.Unlock()
		fl.scope.unregisterHIT(hitID)
		defer m.disposeRetired(hitID)
		if fl.received == 0 {
			m.traceDirectGone(fl.span, err.Error())
			fl.fail(fmt.Errorf("taskmgr: %s: %v", fl.def.Name, err))
			return
		}
		m.finalizeJoin(fl)
		return
	}
	if fl, ok := s.ranks[hitID]; ok {
		fl.needed--
		if fl.received < fl.needed {
			s.mu.Unlock()
			return
		}
		delete(s.ranks, hitID)
		s.mu.Unlock()
		fl.scope.unregisterHIT(hitID)
		defer m.disposeRetired(hitID)
		if fl.received == 0 {
			m.traceDirectGone(fl.span, err.Error())
			fl.done(nil, fmt.Errorf("taskmgr: %s: %v", fl.def.Name, err))
			return
		}
		m.finalizeRank(fl)
		return
	}
	s.mu.Unlock()
}

// Cache returns the manager's task cache.
func (m *Manager) Cache() *cache.Cache { return m.cache }

// Models returns the manager's model registry.
func (m *Manager) Models() *model.Registry { return m.models }

// Account returns the budget account.
func (m *Manager) Account() *budget.Account { return m.account }

// SetBasePolicy replaces the default policy for tasks without their own.
func (m *Manager) SetBasePolicy(p Policy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.base = p
}

func (m *Manager) basePolicy() Policy {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base
}

// SetPolicy pins a task-specific policy (the optimizer's knob).
func (m *Manager) SetPolicy(task string, p Policy) {
	st := m.state(task, nil)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.policy = p
	st.hasOwnPolicy = true
}

// PolicyFor reports the effective policy for a task definition.
func (m *Manager) PolicyFor(def *qlang.TaskDef) Policy {
	st := m.state(def.Name, def)
	base := m.basePolicy()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.effectivePolicyLocked(base)
}

// effectivePolicyLocked resolves the policy for this task; st.mu held.
func (st *taskState) effectivePolicyLocked(base Policy) Policy {
	return st.scopedPolicyLocked(base, nil)
}

// scopedPolicyLocked resolves the policy for this task as seen by one
// query scope: a per-query override (WithPolicy) replaces the engine /
// task policy, TASK-definition clauses still win on top, exactly as
// they do everywhere else. st.mu held; the scope lock is taken after
// it (st.mu → scope.mu is the global lock order).
func (st *taskState) scopedPolicyLocked(base Policy, scope *Scope) Policy {
	p := base
	if st.hasOwnPolicy {
		p = st.policy
	}
	if sp, ok := scope.policyFor(st.name); ok {
		p = sp
	}
	if st.def != nil {
		p = p.merged(st.def)
	}
	return p.Clamped()
}

// state returns (creating if needed) the named task's state. Task names
// are case-insensitive: the registry is keyed by the lower-cased name,
// and spelled remembers each spelling a caller used, so a repeat lookup
// costs one map probe and no lower-casing.
func (m *Manager) state(name string, def *qlang.TaskDef) *taskState {
	m.mu.Lock()
	st, ok := m.spelled[name]
	if !ok {
		key := strings.ToLower(name)
		if st, ok = m.tasks[key]; !ok {
			st = &taskState{name: key, latency: stats.NewEWMA(stats.TaskEWMAAlpha), agreement: stats.NewEWMA(stats.TaskEWMAAlpha)}
			m.tasks[key] = st
		}
		m.spelled[name] = st
	}
	m.mu.Unlock()
	st.mu.Lock()
	if st.def == nil && def != nil {
		st.def = def
	}
	st.mu.Unlock()
	return st
}

// defOf reads the task's definition (immutable once set).
func (st *taskState) defOf() *qlang.TaskDef {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.def
}

func (m *Manager) newKey() string {
	return mturk.PaddedID("t", m.nextKey.Add(1))
}

// Submit enqueues one task application. The Done callback fires exactly
// once with the outcome.
func (m *Manager) Submit(req Request) {
	if req.Def == nil || req.Done == nil {
		panic("taskmgr: Submit needs a task definition and Done callback")
	}
	if cause := req.Scope.Err(); cause != nil {
		req.Done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", req.Def.Name, cause)})
		return
	}
	st := m.state(req.Def.Name, req.Def)
	base := m.basePolicy()
	st.mu.Lock()
	st.submitted++
	pol := st.scopedPolicyLocked(base, req.Scope)
	st.mu.Unlock()

	// 1. Task Cache: a prior answer costs nothing. The key rides on the
	// item to the finalize Put and the journal.
	ckey := cache.NewKey(req.Def.Name, req.Args)
	if pol.UseCache {
		if entry, ok := m.cache.Get(ckey); ok && len(entry.Answers) > 0 {
			st.mu.Lock()
			st.cacheHits++
			st.mu.Unlock()
			req.Trace.AddCacheHits(1)
			if reg := m.obsRegistry(); reg != nil {
				reg.Counter(obs.MetricCacheHits, obs.L("task", req.Def.Name)).Add(1)
			}
			out := reduce(req.Def, entry.Answers)
			out.FromCache = true
			if isBooleanTask(req.Def) {
				st.observeSelectivity(out.Value.Truthy(), req.StatSide)
			}
			req.Done(out)
			return
		}
	}

	// 2. Task Model: a confident classifier answers boolean tasks.
	if pol.UseModel && isBooleanTask(req.Def) {
		if tm, ok := m.models.For(st.name); ok {
			if v, _, ok := tm.TryAnswer(req.Args); ok {
				st.mu.Lock()
				st.modelAnswers++
				st.mu.Unlock()
				req.Trace.AddModelHits(1)
				if reg := m.obsRegistry(); reg != nil {
					reg.Counter(obs.MetricModelAnswers, obs.L("task", req.Def.Name)).Add(1)
				}
				st.observeSelectivity(v.Truthy(), req.StatSide)
				req.Done(Outcome{Value: v, Answers: []relation.Value{v}, Agreement: 1, FromModel: true})
				return
			}
		}
	}

	// 3. Queue for humans; batch with other applications of this task.
	item := pendingItem{
		key:         m.newKey(),
		args:        req.Args,
		ckey:        ckey,
		prompt:      req.Prompt,
		def:         req.Def,
		assignments: req.Assignments,
		side:        req.StatSide,
		scope:       req.Scope,
		priority:    req.Scope.priorityNow(),
		shared:      req.Scope.sharedNow() || req.Def.Share,
		done:        req.Done,
		addedAt:     m.market.Clock().Now(),
		span:        req.Trace,
	}
	var batches [][]pendingItem
	st.mu.Lock()
	// Re-check the scope under st.mu: Cancel's pending sweep also takes
	// st.mu, so either it already ran (we must resolve here, or the item
	// would be stranded) or it will run after us and sweep this item.
	if cause := req.Scope.Err(); cause != nil {
		st.mu.Unlock()
		req.Done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", req.Def.Name, cause)})
		return
	}
	st.pending = append(st.pending, item)
	if len(st.pending) >= pol.BatchSize {
		batches = st.cutBatchesLocked(base, false)
		if len(batches) == 0 && !st.lingerArmed && len(st.pending) >= pol.BatchSize {
			// Threshold reached but every batch group is still partial —
			// mixed groups sharing one task — and no linger timer is
			// armed to flush them later. Cut the partials rather than
			// strand them: their Done callbacks must make progress. (With
			// a linger armed the timer will flush, giving the groups a
			// chance to fill first.)
			batches = st.cutBatchesLocked(base, true)
		} else if len(batches) > 0 && !st.armLingerLocked(m, base) {
			// A cut fired but left other groups' partials behind with no
			// timer to flush them (lingerArmed is cleared by flushes, not
			// re-armed): without this, a leftover whose group never fills
			// again would starve. Arm a linger when any leftover's policy
			// provides one; force-cut them otherwise.
			batches = append(batches, st.cutBatchesLocked(base, true)...)
		}
	} else if !st.lingerArmed && pol.Linger > 0 {
		// Arm a linger timer so partial batches cannot starve.
		st.lingerArmed = true
		taskName := req.Def.Name
		m.market.Clock().Schedule(pol.Linger, func() { m.lingerFlush(taskName) })
	}
	st.mu.Unlock()
	m.postBatches(st, batches)
}

// armLingerLocked arms a linger timer covering the current pending
// leftovers, using the smallest positive Linger among their scopes'
// effective policies. It reports false when items are pending but no
// policy provides a timer (Linger ≤ 0 everywhere) — the caller must
// then flush the leftovers itself or they starve. st.mu held.
func (st *taskState) armLingerLocked(m *Manager, base Policy) bool {
	if st.lingerArmed || len(st.pending) == 0 {
		return true
	}
	linger := time.Duration(0)
	for _, it := range st.pending {
		if l := st.scopedPolicyLocked(base, it.scope).Linger; l > 0 && (linger == 0 || l < linger) {
			linger = l
		}
	}
	if linger <= 0 {
		return false
	}
	st.lingerArmed = true
	task := st.name
	m.market.Clock().Schedule(linger, func() { m.lingerFlush(task) })
	return true
}

// lingerFlush flushes whatever is pending for a task when its linger
// timer fires.
func (m *Manager) lingerFlush(task string) {
	st := m.state(task, nil)
	base := m.basePolicy()
	st.mu.Lock()
	st.lingerArmed = false
	batches := st.cutBatchesLocked(base, true)
	st.mu.Unlock()
	m.postBatches(st, batches)
}

// Flush posts any partial batch for the named task immediately.
func (m *Manager) Flush(task string) {
	m.flushState(m.state(task, nil))
}

// FlushScope posts the named task's partial batches on behalf of one
// query scope. The scope's own non-shared partials force-cut exactly
// like Flush — they have no other query to wait for. Sharing-opted
// partials (the scope's included) stay pooled so other queries can
// still fill them; only full batches cut, with a linger timer armed —
// or an immediate force-cut when no pending policy provides one — so
// the pool cannot starve. A nil scope behaves like Flush.
func (m *Manager) FlushScope(task string, sc *Scope) {
	if sc == nil {
		m.Flush(task)
		return
	}
	st := m.state(task, nil)
	base := m.basePolicy()
	st.mu.Lock()
	batches := st.cutBatchesLocked(base, false)
	var mine []pendingItem
	kept := st.pending[:0]
	for _, it := range st.pending {
		if it.scope == sc && !it.shared {
			mine = append(mine, it)
		} else {
			kept = append(kept, it)
		}
	}
	st.pending = mine
	batches = append(batches, st.cutBatchesLocked(base, true)...)
	st.pending = append(st.pending, kept...)
	if !st.armLingerLocked(m, base) {
		batches = append(batches, st.cutBatchesLocked(base, true)...)
	}
	st.mu.Unlock()
	m.postBatches(st, batches)
}

// FlushAll posts every partial batch, in task-name order so the posting
// sequence is deterministic.
func (m *Manager) FlushAll() {
	m.mu.Lock()
	names := make([]string, 0, len(m.tasks))
	for name := range m.tasks {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		m.flushState(m.state(name, nil))
	}
}

func (m *Manager) flushState(st *taskState) {
	base := m.basePolicy()
	st.mu.Lock()
	batches := st.cutBatchesLocked(base, true)
	st.mu.Unlock()
	m.postBatches(st, batches)
}

// batchGroup keys one batchable family of pending items: items with
// different assignment overrides never share a HIT (their redundancy
// differs), and by default items of different query scopes never share
// a HIT (so a canceled query can expire whole HITs and per-scope
// budgets/policies apply cleanly). Sharing-opted items group by their
// effective posting policy instead of their scope: any two scopes
// whose clamped policies agree may fill one HIT together (same task is
// implicit — pending is per task).
type batchGroup struct {
	assignments int
	scope       *Scope // nil for shared groups (items may span scopes)
	shared      bool
	pol         Policy // shared groups: the common effective policy
}

// cutGroup is one batch group's tally within a single cut.
type cutGroup struct {
	key  batchGroup
	size int // batch size under the group's effective policy
	n    int // pending items in the group
	cut  int // of those, items cut into batches
	next int // fill cursor into the cut array
}

// cutBatchesLocked partitions the pending items into HIT-sized batches
// per batch group, each under its group's effective policy. force cuts
// everything (flush/linger); otherwise only full batches are cut and
// remainders stay pending for the linger timer. Higher-priority scopes
// cut first (stable, so FIFO order is preserved within a priority
// level). Groups are ordered by first appearance; batches come out in
// group order, and the leftovers go back into pending in group order,
// FIFO within each group. Every batch of one cut is carved, with a
// capped three-index slice, from one exact-size array, so a batch
// shares backing with neither pending nor another batch and is owned
// by whoever posts it. st.mu held; posting happens after release.
func (st *taskState) cutBatchesLocked(base Policy, force bool) [][]pendingItem {
	if len(st.pending) == 0 {
		return nil
	}
	mixed := false
	for _, it := range st.pending[1:] {
		if it.priority != st.pending[0].priority {
			mixed = true
			break
		}
	}
	if mixed {
		sort.SliceStable(st.pending, func(i, j int) bool {
			return st.pending[i].priority > st.pending[j].priority
		})
	}
	// Find each item's group by a linear scan: a cut sees few groups,
	// and == on batchGroup is the equality a map key would use.
	var groupBuf [4]cutGroup
	var slotBuf [32]int32
	groups, slot := groupBuf[:0], slotBuf[:0]
	for _, it := range st.pending {
		g := batchGroup{assignments: it.assignments, scope: it.scope}
		if it.shared {
			g = batchGroup{assignments: it.assignments, shared: true,
				pol: st.scopedPolicyLocked(base, it.scope)}
		}
		i := 0
		for i < len(groups) && groups[i].key != g {
			i++
		}
		if i == len(groups) {
			size := g.pol.BatchSize
			if !g.shared {
				size = st.scopedPolicyLocked(base, g.scope).BatchSize
			}
			groups = append(groups, cutGroup{key: g, size: size})
		}
		groups[i].n++
		slot = append(slot, int32(i))
	}
	total, nbatches := 0, 0
	for i := range groups {
		g := &groups[i]
		g.cut = g.n - g.n%g.size
		if force {
			g.cut = g.n
		}
		g.next = total
		total += g.cut
		nbatches += (g.cut + g.size - 1) / g.size
	}
	var batches [][]pendingItem
	if total > 0 {
		cut := make([]pendingItem, total)
		batches = make([][]pendingItem, 0, nbatches)
		for i := range groups {
			g := &groups[i]
			for lo := g.next; lo < g.next+g.cut; lo += g.size {
				hi := min(lo+g.size, g.next+g.cut)
				batches = append(batches, cut[lo:hi:hi])
			}
		}
		// Fill the batches in pending order and compact the leftovers
		// to the front of pending, keeping their group slots beside
		// them. The write index kept never passes the read index j.
		kept := 0
		for j := range st.pending {
			g := &groups[slot[j]]
			if g.cut > 0 {
				cut[g.next] = st.pending[j]
				g.next++
				g.cut--
				continue
			}
			st.pending[kept], slot[kept] = st.pending[j], slot[j]
			kept++
		}
		clear(st.pending[kept:])
		st.pending, slot = st.pending[:kept], slot[:kept]
	}
	ordered := true
	for k := 1; k < len(slot) && ordered; k++ {
		ordered = slot[k-1] <= slot[k]
	}
	if ordered {
		return batches
	}
	// The leftovers interleave groups: put them back in group order.
	left := append([]pendingItem(nil), st.pending...)
	start := make([]int, len(groups)+1)
	for _, gi := range slot {
		start[gi+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for k, gi := range slot {
		st.pending[start[gi]] = left[k]
		start[gi]++
	}
	return batches
}

// postBatches hands cut batches to the admission scheduler, which
// posts them immediately when the gate has room and queues them in
// priority / weighted-fair-share order otherwise.
func (m *Manager) postBatches(st *taskState, batches [][]pendingItem) {
	if len(batches) == 0 {
		return
	}
	for _, batch := range batches {
		m.enqueueBatch(st, batch)
	}
	m.dispatch()
}

// splitCost divides a HIT's cost across scopes proportionally to their
// item counts, in integer cents, with largest-remainder rounding so
// the parts always sum exactly to the total. Ties break toward earlier
// shares (batch first-appearance order), keeping the split
// deterministic.
func splitCost(total budget.Cents, counts []int) []budget.Cents {
	sum := 0
	for _, c := range counts {
		sum += c
	}
	out := make([]budget.Cents, len(counts))
	if sum == 0 {
		return out
	}
	assigned := budget.Cents(0)
	rems := make([]int64, len(counts))
	for i, c := range counts {
		num := int64(total) * int64(c)
		out[i] = budget.Cents(num / int64(sum))
		rems[i] = num % int64(sum)
		assigned += out[i]
	}
	for extra := total - assigned; extra > 0; extra-- {
		best := 0
		for i, r := range rems {
			if r > rems[best] {
				best = i
			}
		}
		out[best]++
		rems[best] = -1
	}
	return out
}

// shareOut counts a batch's items per scope, in first-appearance order,
// and splits the HIT cost across the scopes by item count. A batch of
// one scope — the usual case — takes the whole cost.
func shareOut(items []pendingItem, cost budget.Cents) []hitShare {
	shares := make([]hitShare, 0, 1)
	for _, it := range items {
		i := 0
		for i < len(shares) && shares[i].scope != it.scope { // few scopes per batch
			i++
		}
		if i == len(shares) {
			shares = append(shares, hitShare{scope: it.scope})
		}
		shares[i].items++
	}
	if len(shares) == 1 {
		shares[0].cost = cost
		return shares
	}
	counts := make([]int, len(shares))
	for i := range shares {
		counts[i] = shares[i].items
	}
	for i, c := range splitCost(cost, counts) {
		shares[i].cost = c
	}
	return shares
}

func endPosts(scopes []*Scope) {
	for _, sc := range scopes {
		sc.endPost()
	}
}

func containsScope(scopes []*Scope, sc *Scope) bool {
	for _, s := range scopes {
		if s == sc {
			return true
		}
	}
	return false
}

// post sends a HIT of any kind to the backend, via the test hook when
// one is installed.
func (m *Manager) post(h *hit.HIT, onAssignment func(mturk.AssignmentResult)) error {
	if hook := m.postHook.Load(); hook != nil {
		if err := (*hook)(h); err != nil {
			return err
		}
	}
	return m.market.Post(h, onAssignment)
}

// batchPolicy resolves the posting policy for one batch: the first
// item's scoped policy (identical across the batch by group
// construction) with the batch's assignments override applied.
func (m *Manager) batchPolicy(st *taskState, batch []pendingItem) Policy {
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.scopedPolicyLocked(base, batch[0].scope)
	st.mu.Unlock()
	if batch[0].assignments > 0 {
		pol.Assignments = batch[0].assignments
	}
	return pol
}

// postBatch compiles one batch into a HIT and posts it, reporting
// whether a HIT actually reached the marketplace (the admission
// scheduler releases the slot otherwise). Items in a batch share one
// assignments override and either one scope or — for sharing-opted
// items — one effective posting policy across several scopes; the HIT
// cost is split across the participating scopes by item count (integer
// cents, largest-remainder rounding) so per-scope budgets and refunds
// stay exact. The batch is owned by the caller once cut (nothing else
// edits its array), so postBatch filters it in place and the posted
// HIT keeps it as its item slots. No locks are held: posting calls into
// the marketplace and, on synchronous failure, back into user
// callbacks. queuedAt is the admission-scheduler enqueue time (zero for
// paths that bypass it); tracing reports the difference as admission
// wait.
func (m *Manager) postBatch(st *taskState, batch []pendingItem, queuedAt mturk.VirtualTime) bool {
	pol := m.batchPolicy(st, batch)
	def := st.defOf()

	// Adaptive redundancy: under an EM aggregator, eligible batches post
	// at the MinAssignments floor and buy further assignments only while
	// the posterior stays unsure. Shared batches stay fixed-redundancy
	// (extensions charge one scope; co-batched items span several), as
	// does everything once a backend has rejected an extension.
	agg, target, minA := m.inferencePlan(def, pol)
	postAssign := pol.Assignments
	adaptive := agg != nil && minA > 0 && minA < pol.Assignments &&
		!batch[0].shared && !m.extendBroken.Load()
	if adaptive {
		postAssign = minA
	}

	// Drop items whose scope was canceled between cut and post: a
	// linger flush or the admission queue may still carry them, and in
	// a shared batch the other scopes' items must run regardless —
	// without paying for the canceled ones. Each live scope admits the
	// post (beginPost), so a Cancel racing it waits until the HIT is
	// registered and never returns with a post still on its way.
	live := batch[:0]
	var admittedBuf [1]*Scope // a batch usually has one scope
	admitted := admittedBuf[:0]
	for _, it := range batch {
		var cause error
		if !containsScope(admitted, it.scope) {
			if cause = it.scope.beginPost(); cause == nil {
				admitted = append(admitted, it.scope)
			}
		}
		if cause != nil {
			it.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", it.def.Name, cause)})
			continue
		}
		live = append(live, it)
	}
	defer endPosts(admitted)

	// Charge each participating scope its share. When one scope's
	// budget cannot cover its slice, refund the scopes already charged,
	// fail that scope's items, and retry with the rest — the HIT price
	// does not depend on how many scopes fill it, so the loop strictly
	// shrinks the scope set and terminates.
	price := m.priceFor(def, pol)
	cost := budget.Cents(price * int64(postAssign))
	var shares []hitShare
	for len(live) > 0 {
		shares = shareOut(live, cost)
		failed := -1
		var ferr error
		for i := range shares {
			if err := shares[i].scope.spend(shares[i].cost); err != nil {
				failed, ferr = i, err
				break
			}
		}
		if failed < 0 {
			break
		}
		for i := 0; i < failed; i++ {
			shares[i].scope.refund(shares[i].cost)
		}
		bad := shares[failed].scope
		kept := live[:0]
		for _, it := range live {
			if it.scope == bad {
				it.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", def.Name, ferr)})
			} else {
				kept = append(kept, it)
			}
		}
		live = kept
	}
	if len(live) == 0 {
		return false
	}
	if err := m.account.Spend(cost); err != nil {
		for i := range shares {
			shares[i].scope.refund(shares[i].cost)
		}
		for _, it := range live {
			it.done(Outcome{Err: fmt.Errorf("taskmgr: %s: %w", def.Name, err)})
		}
		return false
	}

	h := &hit.HIT{
		ID:          m.market.NewHITID(),
		Task:        def.Name,
		Type:        def.Type,
		Title:       def.Name,
		Question:    batchQuestion(def, live),
		Response:    responseFor(def),
		RewardCents: price,
		Assignments: postAssign,
		Items:       make([]hit.Item, len(live)),
	}
	for i, it := range live {
		prompt := it.prompt
		if prompt == "" && len(live) > 1 {
			prompt = hit.RenderText(it.def.Text, it.def.TextArgs, it.def.Params, it.args)
		}
		h.Items[i] = hit.Item{Key: it.key, Args: it.args, Prompt: prompt}
	}

	st.mu.Lock()
	st.spent += cost
	st.hitsPosted++
	st.questionsAsked += int64(len(live))
	st.mu.Unlock()
	if len(shares) > 1 {
		m.sharedHITs.Add(1)
		m.sharedItems.Add(int64(len(live)))
		m.sharedSaved.Add(int64(len(shares) - 1))
		m.savedCents.Add(int64(cost) * int64(len(shares)-1))
	}

	fl := &inflightHIT{
		hit:      h,
		state:    st,
		shares:   shares,
		cost:     cost,
		items:    live,
		answers:  answerSlots(len(live), pol.Assignments),
		byWorker: make([]hit.Answers, 0, pol.Assignments),
		needed:   postAssign,
		assign:   postAssign,
		admitted: true,
		postedAt: m.market.Clock().Now(),
		backend:  m.servingBackend(def),
		agg:      agg,
		adaptive: adaptive,
		boolTask: isBooleanTask(def),
		target:   target,
		capA:     pol.Assignments,
	}
	m.traceBatchSpans(fl, pol, queuedAt)
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
		m.traceHITPostFailed(fl, err)
		// Refund with the same split attribution as the charge: each
		// scope gets back exactly its share, once, and the account the
		// exact total — a batch spanning scopes cannot double-refund.
		for i := range shares {
			m.account.Refund(shares[i].cost)
			shares[i].scope.refund(shares[i].cost)
		}
		for _, it := range live {
			it.done(Outcome{Err: fmt.Errorf("taskmgr: post %s: %v", def.Name, err)})
		}
		return false
	}
	m.traceBatchMetrics(fl, pol, queuedAt)
	for i := range shares {
		if cause := shares[i].scope.registerHIT(h.ID); cause != nil {
			// The scope was canceled while the HIT was being posted;
			// withdraw its stake ourselves — cancellation never saw it.
			m.cancelScopeHIT(h.ID, shares[i].scope, cause)
		}
	}
	return true
}

// onAssignment collects one completed assignment; when the HIT has all
// of them, every batched item resolves. Only one goroutine can observe
// received == needed under the stripe lock, so finalization runs exactly
// once, outside all locks.
func (m *Manager) onAssignment(res mturk.AssignmentResult) {
	s := m.flights.stripeFor(res.HITID)
	s.mu.Lock()
	fl, ok := s.hits[res.HITID]
	if !ok {
		s.mu.Unlock()
		return
	}
	for i := range fl.hit.Items {
		if v, ok := res.Answers.Values[fl.hit.Items[i].Key]; ok {
			fl.answers[i] = append(fl.answers[i], v)
		}
	}
	fl.byWorker = append(fl.byWorker, res.Answers)
	fl.received++
	m.traceAssignment(fl, res.Answers.WorkerID)
	if fl.received < fl.needed {
		s.mu.Unlock()
		return
	}
	if fl.adaptive && fl.needed < fl.capA && !m.itemsConfident(fl) {
		// Posterior still unsure below the cap: keep the HIT in flight
		// and buy one more assignment. No other completion can race in —
		// every posted slot has reported — so this goroutine alone
		// decides extend-or-finalize.
		s.mu.Unlock()
		m.extendInflight(s, res.HITID, fl)
		return
	}
	delete(s.hits, res.HITID)
	s.mu.Unlock()
	fl.unregister(res.HITID)
	m.hitRetired(fl)
	m.finalizeInflight(fl)
	m.disposeRetired(res.HITID)
}

// disposeRetired disposes of a retired HIT at its backend: once every
// assignment has reported or failed, the backend's copy of its items,
// answers and status would only grow a long-lived engine. Every
// terminal path of every HIT kind calls it after the HIT's items have
// resolved, so a backend whose Dispose makes a network call does not
// delay results. (The cancel paths dispose through cancelScopeHIT and
// expireHIT.)
func (m *Manager) disposeRetired(hitID string) { m.market.Dispose(hitID) }

// resolution is one item's outcome, held until every item of its HIT
// has been accounted for and the Done callbacks may run.
type resolution struct {
	done func(Outcome)
	out  Outcome
}

// resolvedInline sizes the finalize paths' stack buffer of resolutions:
// a HIT with more items spills it to the heap.
const resolvedInline = 8

// finalizeInflight resolves every batched item of a completed (or
// partially failed) HIT, in the HIT's item order so reruns resolve
// identically. It must not hold any manager lock: the Done callbacks may
// reenter Submit.
func (m *Manager) finalizeInflight(fl *inflightHIT) {
	if fl.group {
		m.finalizeGroup(fl)
		return
	}
	st := fl.state
	latencyMin := (m.market.Clock().Now() - fl.postedAt).Minutes()
	st.latency.Observe(latencyMin)
	j := m.getJournal()
	if j != nil {
		j.Append(store.Record{Kind: store.KindLatency, Task: fl.hit.Task, X: latencyMin})
	}
	if fl.adaptive {
		m.adaptiveHITs.Add(1)
		m.adaptiveAssign.Add(int64(fl.assign))
		m.adaptiveCapSum.Add(int64(fl.capA))
		if saved := int64(fl.capA-fl.assign) * fl.hit.RewardCents; saved > 0 {
			m.inferSaved.Add(saved)
		}
	}

	// Under an EM aggregator, resolve answers from one joint fit over
	// the whole HIT — worker accuracies and item posteriors estimated
	// together — and feed the fitted accuracies back as quality
	// evidence. The fit reads the same votes in the same order as the
	// adaptive loop's confidence checks, so the finalized answer is the
	// posterior that stopped the extensions.
	var posts []infer.Posterior // by item slot; nil without a fit
	if em, ok := fl.agg.(*infer.EM); ok {
		votes, slots := fl.votesByItem()
		ps, accs := em.Fit(votes, fl.boolTask)
		posts = make([]infer.Posterior, len(fl.items))
		for k, i := range slots {
			posts[i] = ps[k]
		}
		m.noteWorkerQuality(accs)
	}
	m.traceHITDone(fl, latencyMin, posts)

	var resolvedBuf [resolvedInline]resolution
	resolved := resolvedBuf[:0]
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.effectivePolicyLocked(base)
	st.mu.Unlock()
	var agreeSum float64
	var agreeN int
	for i := range fl.items {
		item := &fl.items[i]
		if item.detached {
			continue
		}
		answers := fl.answers[i]
		out := reduce(item.def, answers)
		if posts != nil && len(answers) > 0 {
			out.Value = posts[i].Value
			out.Agreement = posts[i].Confidence
		}
		st.agreement.Observe(out.Agreement)
		agreeSum += out.Agreement
		agreeN++
		if isBooleanTask(item.def) {
			st.observeSelectivity(out.Value.Truthy(), item.side)
			m.noteWorkerVotes(fl.byWorker, item.key, out.Value.Truthy())
		}
		var enc cache.Answers
		if pol.UseCache {
			enc = cache.EncodeAnswers(answers)
			m.cache.Put(item.ckey, enc)
		}
		if pol.TrainModel && isBooleanTask(item.def) {
			if tm, ok := m.models.For(st.name); ok {
				tm.Train(item.args, out.Value.Truthy())
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

// journalItem streams one finalized item's learned artifacts to the
// journal: the cache entry, the selectivity/agreement observations and
// the model training example. key is the item's task cache key and
// answers the list finalize encoded once for the cache (empty when the
// policy does not cache): the record carries that same immutable
// string, so nothing is copied while the store writes asynchronously.
func (m *Manager) journalItem(j Journal, pol Policy, def *qlang.TaskDef,
	key cache.Key, side string, answers cache.Answers, out Outcome) {
	if pol.UseCache {
		j.Append(store.Record{Kind: store.KindCacheEntry, Task: key.Task, Args: key.Args, Answers: answers})
	}
	j.Append(store.Record{Kind: store.KindAgreement, Task: def.Name, X: out.Agreement})
	if !isBooleanTask(def) {
		return
	}
	pass := out.Value.Truthy()
	j.Append(store.Record{Kind: store.KindSelectivity, Task: def.Name, Side: side, Pass: pass})
	if pol.TrainModel {
		j.Append(store.Record{Kind: store.KindModelExample, Task: def.Name, Args: key.Args, Pass: pass})
	}
}

// reduce collapses redundant answers by the task's natural aggregate
// (paper §3: lists reduced by user-defined aggregates).
func reduce(def *qlang.TaskDef, answers []relation.Value) Outcome {
	out := Outcome{Answers: answers}
	switch {
	case isBooleanTask(def):
		b, conf := stats.MajorityBool(answers)
		out.Value = relation.NewBool(b)
		out.Agreement = conf
	case def.Type == qlang.TaskRating:
		out.Value = relation.NewFloat(stats.MeanRating(answers))
		out.Agreement = stats.Agreement(answers)
	default:
		v, conf := stats.MajorityValue(answers)
		out.Value = v
		out.Agreement = conf
	}
	return out
}

func isBooleanTask(def *qlang.TaskDef) bool {
	return def.Type == qlang.TaskFilter || def.Type == qlang.TaskJoinPredicate ||
		(len(def.Returns) == 1 && def.Returns[0].Kind == relation.KindBool)
}

// batchQuestion renders the HIT-level instruction: for singleton batches
// it is the task text with substitutions, for larger batches a generic
// header (per-item prompts carry the specifics).
func batchQuestion(def *qlang.TaskDef, batch []pendingItem) string {
	if len(batch) == 1 {
		if batch[0].prompt != "" {
			return batch[0].prompt
		}
		return hit.RenderText(def.Text, def.TextArgs, def.Params, batch[0].args)
	}
	return fmt.Sprintf("Answer the following %d questions. %s", len(batch), def.Text)
}

// responseFor derives the response spec for *item-wise* HITs, defaulting
// by task type when a definition omits it. A JoinColumns task submitted
// pairwise (one pair per item) degrades to YesNo questions.
func responseFor(def *qlang.TaskDef) qlang.Response {
	r := def.Response
	if r.Kind == qlang.ResponseJoinColumns {
		return qlang.Response{Kind: qlang.ResponseYesNo}
	}
	if r.Kind == qlang.ResponseForm && len(r.Fields) == 0 {
		switch def.Type {
		case qlang.TaskFilter, qlang.TaskJoinPredicate:
			return qlang.Response{Kind: qlang.ResponseYesNo}
		case qlang.TaskRating:
			return qlang.Response{Kind: qlang.ResponseRating, ScaleMin: 1, ScaleMax: 7}
		default:
			fields := make([]qlang.FormField, 0, len(def.Returns))
			for _, ret := range def.Returns {
				label := ret.Name
				if label == "" {
					label = "Answer"
				}
				fields = append(fields, qlang.FormField{Label: label, Kind: ret.Kind})
			}
			return qlang.Response{Kind: qlang.ResponseForm, Fields: fields}
		}
	}
	return r
}

// Stats returns per-task statistics, sorted by task name.
func (m *Manager) Stats() []TaskStats {
	m.mu.Lock()
	type named struct {
		name string
		st   *taskState
	}
	states := make([]named, 0, len(m.tasks))
	for name, st := range m.tasks {
		states = append(states, named{name, st})
	}
	m.mu.Unlock()
	out := make([]TaskStats, 0, len(states))
	for _, n := range states {
		st := n.st
		st.mu.Lock()
		ts := TaskStats{
			Task:           n.name,
			Submitted:      st.submitted,
			HITsPosted:     st.hitsPosted,
			QuestionsAsked: st.questionsAsked,
			CacheHits:      st.cacheHits,
			ModelAnswers:   st.modelAnswers,
			SpentCents:     st.spent,
		}
		st.mu.Unlock()
		ts.Selectivity = st.selectivity.Estimate()
		ts.SelTrials = st.selectivity.Trials()
		ts.MeanLatencyMin = st.latency.Value()
		ts.MeanAgreement = st.agreement.Value()
		out = append(out, ts)
	}
	sortTaskStats(out)
	return out
}

// SideSelectivity reports the selectivity estimate and trial count for
// one join side of a task (SideLeft/SideRight). While the side has no
// observations of its own it falls back to the task's combined
// estimator, so early decisions keep the old one-estimate behavior.
func (m *Manager) SideSelectivity(task, side string) (estimate float64, trials int) {
	st := m.state(task, nil)
	st.mu.Lock()
	est := st.sideSel[side]
	st.mu.Unlock()
	if est != nil && est.Trials() > 0 {
		return est.Estimate(), est.Trials()
	}
	return st.selectivity.Estimate(), st.selectivity.Trials()
}

// HasSideEvidence reports whether any join-side-tagged selectivity
// observations exist for a task. The planner only trusts the per-side
// cost model once the sides have actually been measured (or replayed
// from the knowledge store); before that, per-side estimates are just
// the shared prior and cannot distinguish the sides.
func (m *Manager) HasSideEvidence(task string) bool {
	st := m.state(task, nil)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, est := range st.sideSel {
		if est.Trials() > 0 {
			return true
		}
	}
	return false
}

// StatsFor returns one task's statistics.
func (m *Manager) StatsFor(task string) TaskStats {
	all := m.Stats()
	key := strings.ToLower(task)
	for _, s := range all {
		if s.Task == key {
			return s
		}
	}
	return TaskStats{Task: key}
}

func sortTaskStats(ss []TaskStats) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Task < ss[j].Task })
}

// Pending reports queued-but-unposted items across all tasks,
// including items cut into batches still waiting in the admission
// queue.
func (m *Manager) Pending() int {
	m.mu.Lock()
	states := make([]*taskState, 0, len(m.tasks))
	for _, st := range m.tasks {
		states = append(states, st)
	}
	m.mu.Unlock()
	n := 0
	for _, st := range states {
		st.mu.Lock()
		n += len(st.pending)
		st.mu.Unlock()
	}
	return n + m.sched.queuedItems()
}

// SharingStats aggregates cross-query co-batching activity.
type SharingStats struct {
	// SharedHITs counts posted HITs whose items came from two or more
	// scopes; CoBatchedItems counts the items inside them.
	SharedHITs     int64
	CoBatchedItems int64
	// HITsSaved estimates the HITs sharing avoided — each shared HIT
	// replaced one partial batch per extra participating scope — and
	// SavedCents prices those HITs at their actual posted cost.
	HITsSaved  int64
	SavedCents budget.Cents
}

// Sharing reports cross-query co-batching counters.
func (m *Manager) Sharing() SharingStats {
	return SharingStats{
		SharedHITs:     m.sharedHITs.Load(),
		CoBatchedItems: m.sharedItems.Load(),
		HITsSaved:      m.sharedSaved.Load(),
		SavedCents:     budget.Cents(m.savedCents.Load()),
	}
}

// Inflight reports posted HITs that have not collected all assignments.
func (m *Manager) Inflight() int {
	n := 0
	for i := range m.flights.stripes {
		s := &m.flights.stripes[i]
		s.mu.Lock()
		n += len(s.hits)
		s.mu.Unlock()
	}
	return n
}
