// Package taskmgr implements Qurk's Task Manager (paper §2): it keeps the
// global queue of tasks enqueued by all operators, batches tasks into
// HITs (tuple batching and operator grouping), prices and posts them via
// the marketplace, consults the Task Cache before spending money, lets a
// confidence-gated Task Model answer in place of humans, reduces the
// multi-answer lists redundancy produces, and feeds the Statistics
// Manager's estimators.
//
// Every HIT, whatever its kind — a batch of one task's items, a group of
// several filters over one tuple, a JoinColumns grid or an S-way
// comparison — lives through one lifecycle as an inflightHIT: open,
// queue for admission, charge, register, post, collect answer sheets,
// extend, finalize or fail, cancel and refund, dispose and trace. A
// kind supplies only where its questions come from (pending items or
// grid cells), how an outcome is delivered (each item's Done, the
// grid's callback, or the comparison's rankings), and whether answer
// inference and adaptive extension apply.
//
// Concurrency: each task's batching state carries its own mutex, the
// HITs in flight share one table under one mutex (flightTable), and the
// manager-level mutex guards only the task registry and base policy.
// Lock order: a scope's mutex before the table, the table before the
// reputation mutex (repMu), and span mutexes under the table. On the
// simulated marketplace every simulated completion arrives on the
// clock's pump, so completions never contend with each other for the
// table.
//
// Determinism: every finalization resolves its batched items in the
// HIT's item order (never map order), so a completed HIT triggers
// downstream work in the same order on every run.
package taskmgr

import (
	"fmt"
	"math"
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

	// The task's registry series, labeled by task and each resolved at
	// its first event (obs.go); under mu, those labeled by serving
	// backend or scope label too.
	submitted, questions, cacheHits, modelAnswers, cost, refunds obs.Ref
	batches, assignments, extensions, admissionWait, fill        obs.Ref
	extensionDepth                                               obs.Ref
	backends                                                     []backendSeries
	scopeCost                                                    map[string]*obs.Counter

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
	args        []relation.Value
	ckey        cache.Key // task cache key, encoded once at submission
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

// flightTable holds the posted HITs that have not retired, by HIT ID.
type flightTable struct {
	mu   sync.Mutex
	hits map[string]*inflightHIT
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

	flights flightTable

	// sched orders HIT posting across scopes (priority, then weighted
	// fair share) behind an optional max-in-flight admission gate.
	sched scheduler

	// postHook, when set (by tests), can fail a post before it reaches
	// the marketplace, exercising the refund paths deterministically.
	postHook atomic.Pointer[func(h *hit.HIT) error]

	// metrics holds every counter the manager keeps (obs.go); these are
	// its unlabeled series, each resolved at its first event.
	metrics                                         *obs.Registry
	sharedHITs, coBatched, sharedSaved, sharedCents obs.Ref
	adaptiveHITs, extendFailures, adaptiveUsed      obs.Ref
	adaptiveCap, inferSaved, inflight               obs.Ref

	// journal, when set, receives a durable record for every learned
	// artifact produced on the paid (human) paths: cache entries,
	// selectivity/latency/agreement observations, model training
	// examples and reputation votes. Appends are asynchronous inside the
	// store and the pointer is read atomically, so finalizations never
	// block on persistence.
	journal atomic.Pointer[Journal]

	// tracer, when set (SetObs), receives span trees for every
	// batching, posting and finalization event. Read atomically like
	// the journal: the disabled path costs one load per site.
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
// happen under the in-flight table's lock.
type hitShare struct {
	scope    *Scope
	items    int
	cost     budget.Cents
	detached bool
}

// hitKind says where a HIT's questions come from and how their
// outcomes are delivered; the rest of a HIT's lifecycle is the same for
// every kind.
type hitKind uint8

const (
	// kindBatch asks cut pending items of one task; each item's Done
	// receives its outcome.
	kindBatch hitKind = iota
	// kindGroup asks items of several boolean tasks about one tuple;
	// each item observes under its own task's state.
	kindGroup
	// kindGrid asks the cells of a JoinColumns grid and delivers, by
	// the caller's positions, the cells the caller waits on.
	kindGrid
	// kindRank asks one S-way comparison and delivers every
	// assignment's ranking at once.
	kindRank
)

// inflightHIT is one HIT, of any kind, from the moment it is opened —
// through the admission queue — until it resolves. Its questions are
// held by position: question i is question i of hit and of every sheet
// in byWorker, and items[i] (the pending item that asked, with its Done
// callback) or cells[i]; the position is a question's only name. A
// batch's hit is built only once it is admitted, from its live items.
// The sheets, in arrival order, are the only copy of the answers until
// finalize lays them out per question. A scope that withdraws from a
// shared HIT marks its items detached under the table lock;
// finalization, failure and the EM vote builder skip them.
type inflightHIT struct {
	hit      *hit.HIT
	def      *qlang.TaskDef // the task asked (a group's first item's)
	state    *taskState     // def's state: latency, policy and spend
	kind     hitKind
	adaptive bool // posted below capA; completions may buy assignments
	boolTask bool // boolean vs categorical EM model
	// shares are the per-scope stakes — provisional while the HIT is
	// queued for admission, charged once it posts; a HIT of one scope
	// keeps its share in sole, so the stake costs no allocation of its
	// own.
	shares []hitShare
	sole   [1]hitShare
	cost   budget.Cents // total charged at post time (sum of shares)

	items    []pendingItem               // batch and group questions
	cells    []joinCell                  // grid questions, row-major over hit's columns
	gridDone func(l, r int, out Outcome) // a grid's delivery
	rankDone func([]Ranking, error)      // a comparison's delivery

	byWorker []hit.Answers
	received int
	needed   int
	assign   int // assignments at post time; basis for pro-rata refunds
	postedAt mturk.VirtualTime
	backend  string // serving backend name, recorded at post time

	// Answer inference and adaptive redundancy (adaptive.go). agg is
	// non-nil only when an EM aggregator resolves this HIT's answers.
	agg    infer.Aggregator
	target float64 // posterior confidence that stops extending
	capA   int     // policy assignment cap for this HIT

	// Tracing (obs.go): span is the HIT's trace span (nil when tracing
	// was off at post time), opSpans the distinct submitting operator
	// spans (HIT/cost attribution), extSpans the adaptive extension
	// spans in purchase order. span and opSpans are fixed before the
	// HIT becomes visible to completions; extSpans appends take the
	// table lock.
	span     *obs.Span
	opSpans  []*obs.Span
	extSpans []*obs.Span
}

// shareOf returns the index of sc's share of the HIT, or -1.
func (fl *inflightHIT) shareOf(sc *Scope) int {
	for i := range fl.shares {
		if fl.shares[i].scope == sc {
			return i
		}
	}
	return -1
}

// questions counts the HIT's questions. A batch counts its items: its
// hit is built only at admission.
func (fl *inflightHIT) questions() int {
	switch fl.kind {
	case kindGrid:
		return len(fl.cells)
	case kindRank:
		return len(fl.hit.Items)
	}
	return len(fl.items)
}

// split divides cost across the HIT's scopes: a batch's by item count
// (shareOut), any other kind's to its one scope.
func (fl *inflightHIT) split(cost budget.Cents) {
	if fl.kind == kindBatch {
		fl.shares = shareOut(fl.items, cost, fl.sole[:0])
		return
	}
	fl.sole[0].items, fl.sole[0].cost = fl.questions(), cost
}

// drop resolves the questions scope sc asked with cause before the HIT
// posts. Only a batch holds several scopes' questions: sc's items leave
// it, and the rest still run. drop returns the error the HIT must fail
// with once nothing is left to ask — at once for any other kind, which
// fails whole after its caller's free answers are out.
func (fl *inflightHIT) drop(sc *Scope, cause error) error {
	err := fmt.Errorf("taskmgr: %s: %w", fl.def.Name, cause)
	if fl.kind != kindBatch {
		return err
	}
	var gone []pendingItem
	fl.items, gone = takeScope(fl.items, sc, nil)
	for _, it := range gone {
		it.done(Outcome{Err: err})
	}
	if len(fl.items) > 0 {
		return nil
	}
	return err
}

// takeScope moves sc's items out of items, in place, appending them to
// taken; the rest keep their order.
func takeScope(items []pendingItem, sc *Scope, taken []pendingItem) ([]pendingItem, []pendingItem) {
	rest := items[:0]
	for _, it := range items {
		if it.scope == sc {
			taken = append(taken, it)
		} else {
			rest = append(rest, it)
		}
	}
	clear(items[len(rest):])
	return rest, taken
}

// byQuestion lays a HIT's answer sheets out question by question in
// one backing array of n questions × len(sheets): question i's answers,
// in arrival order, are byQuestion(...)[i*k : (i+1)*k] for k sheets.
// Finalize reads each question's list through answersOf.
func byQuestion(sheets []hit.Answers, n int) []relation.Value {
	k := len(sheets)
	backing := make([]relation.Value, n*k)
	for w := range sheets {
		for i, v := range sheets[w].Values[:n] {
			backing[i*k+w] = v
		}
	}
	return backing
}

// answersOf returns question i's answers from a byQuestion array over
// k sheets. The list is capped at its length, so a Done callback that
// appends to its Outcome.Answers reallocates instead of writing into
// the next question's answers.
func answersOf(backing []relation.Value, i, k int) []relation.Value {
	return backing[i*k : (i+1)*k : (i+1)*k]
}

// unregister forgets the HIT at every participating scope.
func (fl *inflightHIT) unregister(hitID string) {
	for i := range fl.shares {
		fl.shares[i].scope.unregisterHIT(hitID)
	}
}

// detached reports whether question i is an item whose scope left the
// shared HIT.
func (fl *inflightHIT) detached(i int) bool {
	return fl.items != nil && fl.items[i].detached
}

// owes reports whether question i's asker still waits on its outcome: a
// grid delivers only the cells its caller asked for.
func (fl *inflightHIT) owes(i int) bool {
	if fl.kind == kindGrid {
		return fl.cells[i].wait
	}
	return !fl.detached(i)
}

// deliver hands question q's outcome to whoever asked it.
func (fl *inflightHIT) deliver(q int, out Outcome) {
	if fl.kind == kindGrid {
		c := &fl.cells[q]
		fl.gridDone(c.l, c.r, out)
		return
	}
	fl.items[q].done(out)
}

// fail resolves everything the HIT still owes with err.
func (fl *inflightHIT) fail(err error) {
	if fl.kind == kindRank {
		fl.rankDone(nil, err)
		return
	}
	for i, n := 0, fl.questions(); i < n; i++ {
		if fl.owes(i) {
			fl.deliver(i, Outcome{Err: err})
		}
	}
}

// New wires a manager to the simulated marketplace. models may be nil
// (no automation); account may be nil (unlimited budget).
func New(market *mturk.Marketplace, c *cache.Cache, models *model.Registry, account *budget.Account) *Manager {
	return NewWithBackend(backend.NewSim(market), c, models, account)
}

// NewWithBackend wires a manager to any worker backend — the simulator,
// the HTTP driver, the LLM crowd, or a router mixing them per task —
// and builds the always-on metrics registry its events count in.
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
		metrics: obs.NewRegistry(),
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
	t := &m.flights
	t.mu.Lock()
	fl, ok := t.hits[hitID]
	if !ok {
		t.mu.Unlock()
		return
	}
	fl.needed--
	if fl.received < fl.needed {
		t.mu.Unlock()
		return
	}
	delete(t.hits, hitID)
	t.mu.Unlock()
	m.retire(hitID, fl, err)
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
	m.count(st, &st.submitted, obs.MetricSubmissions, 1)
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.scopedPolicyLocked(base, req.Scope)
	st.mu.Unlock()

	// A cached or modelled answer costs nothing. The key rides on the
	// item to the finalize Put and the journal.
	ckey := cache.NewKey(req.Def.Name, req.Args)
	if out, ok := m.answerFree(st, pol, req.Def, req.Args, ckey, req.StatSide, req.Trace); ok {
		req.Done(out)
		return
	}

	// Queue for humans; batch with other applications of this task.
	item := pendingItem{
		args:        req.Args,
		ckey:        ckey,
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
	m.admitBatches(st, batches)
}

// answerFree answers one task application without a human when it can:
// from the Task Cache, or, for a boolean task, from a confident Task
// Model. A free answer counts on the task's state, observes the task's
// selectivity under side, and counts on span (nil when tracing is off).
// ok is false when the application needs the crowd.
func (m *Manager) answerFree(st *taskState, pol Policy, def *qlang.TaskDef, args []relation.Value,
	ckey cache.Key, side string, span *obs.Span) (Outcome, bool) {
	if pol.UseCache {
		if entry, ok := m.cache.Get(ckey); ok && len(entry.Answers) > 0 {
			m.count(st, &st.cacheHits, obs.MetricCacheHits, 1)
			span.AddCacheHits(1)
			out := reduce(def, entry.Answers)
			out.FromCache = true
			if isBooleanTask(def) {
				st.observeSelectivity(out.Value.Truthy(), side)
			}
			return out, true
		}
	}
	if pol.UseModel && isBooleanTask(def) {
		if tm, ok := m.models.For(st.name); ok {
			if v, _, ok := tm.TryAnswer(args); ok {
				m.count(st, &st.modelAnswers, obs.MetricModelAnswers, 1)
				span.AddModelHits(1)
				st.observeSelectivity(v.Truthy(), side)
				return Outcome{Value: v, Answers: []relation.Value{v}, Agreement: 1, FromModel: true}, true
			}
		}
	}
	return Outcome{}, false
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
	m.admitBatches(st, batches)
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
	m.admitBatches(st, batches)
}

func (m *Manager) flushState(st *taskState) {
	base := m.basePolicy()
	st.mu.Lock()
	batches := st.cutBatchesLocked(base, true)
	st.mu.Unlock()
	m.admitBatches(st, batches)
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

// admitBatches opens each cut batch as a HIT and queues them all for
// admission before dispatching, so the scheduler orders one cut's
// batches by priority and weighted fair share even with no gate set.
func (m *Manager) admitBatches(st *taskState, batches [][]pendingItem) {
	if len(batches) == 0 {
		return
	}
	for _, batch := range batches {
		pol := m.batchPolicy(st, batch)
		m.enqueue(m.openHIT(kindBatch, st.defOf(), st, pol, batch[0].scope, batch), pol, nil)
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
// and splits the HIT cost across the scopes by item count, appending the
// shares to dst[:0]. A batch of one scope — the usual case — takes the
// whole cost.
func shareOut(items []pendingItem, cost budget.Cents, dst []hitShare) []hitShare {
	shares := dst[:0]
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

// openHIT starts the record of a HIT of kind asking def under pol for
// scope sc — a batch's scopes come from its items. Batch and grid HITs
// take the task's inference plan: under an EM aggregator an eligible
// HIT posts at the MinAssignments floor and buys further assignments
// only while the posterior stays unsure. A shared batch stays at fixed
// redundancy (an extension charges one scope; co-batched items span
// several), as does every HIT once a backend has rejected an extension.
// Group and comparison HITs resolve without an aggregator, at the
// policy's redundancy.
func (m *Manager) openHIT(kind hitKind, def *qlang.TaskDef, st *taskState, pol Policy, sc *Scope, items []pendingItem) *inflightHIT {
	fl := &inflightHIT{kind: kind, def: def, state: st, items: items, assign: pol.Assignments, capA: pol.Assignments,
		boolTask: isBooleanTask(def)}
	fl.sole[0].scope = sc
	fl.shares = fl.sole[:]
	if kind == kindBatch || kind == kindGrid {
		agg, target, minA := m.inferencePlan(def, pol)
		fl.agg, fl.target = agg, target
		shared := kind == kindBatch && items[0].shared
		fl.adaptive = agg != nil && minA > 0 && minA < pol.Assignments && !shared && !m.extendBroken.Load()
		if fl.adaptive {
			fl.assign = minA
		}
	}
	fl.needed = fl.assign
	return fl
}

// launch posts the charged HIT of a dequeued entry, of any kind. The
// HIT enters the in-flight table before the backend sees it, so no
// completion can miss it; once posted it is counted (countPosted) and
// registers with each scope, and a scope canceled meanwhile (whose
// Cancel waits for this post) has its stake withdrawn here. A HIT the
// backend refuses leaves the table uncounted, every share is refunded
// with the attribution it was charged with — once, so a HIT spanning
// scopes cannot double-refund — and the error its questions must
// resolve with is returned. No locks are held: posting calls into the
// backend and, on a synchronous cancel, into outcome callbacks.
func (m *Manager) launch(q queuedHIT) error {
	fl := q.fl
	id := fl.hit.ID
	fl.byWorker = make([]hit.Answers, 0, fl.capA)
	fl.postedAt = m.market.Clock().Now()
	t := &m.flights
	t.mu.Lock()
	if t.hits == nil {
		t.hits = make(map[string]*inflightHIT)
	}
	t.hits[id] = fl
	t.mu.Unlock()
	if err := m.post(fl.hit, m.onAssignment); err != nil {
		t.mu.Lock()
		delete(t.hits, id)
		t.mu.Unlock()
		m.traceHITPostFailed(fl, err)
		for i := range fl.shares {
			m.account.Refund(fl.shares[i].cost)
			fl.shares[i].scope.refund(fl.shares[i].cost)
		}
		return fmt.Errorf("taskmgr: post %s: %v", fl.hit.Task, err)
	}
	m.countPosted(q)
	for i := range fl.shares {
		if cause := fl.shares[i].scope.registerHIT(id); cause != nil {
			m.cancelScopeHIT(id, fl.shares[i].scope, cause)
		}
	}
	return nil
}

// postHIT admits one dequeued HIT of any kind and reports whether it
// reached its backend (the scheduler frees the slot otherwise). The
// HIT's provisional hold releases, and each of its scopes opens the
// post (beginPost), so a Cancel racing it waits until the HIT is
// registered and never returns with a post still on its way; a
// canceled scope's questions resolve with the cause (drop). The live
// scopes are charged their shares, then the account. When a scope's
// budget cannot cover its share, the scopes already charged are
// refunded, that scope's questions fail and the rest retry — the HIT
// price does not depend on how many scopes fill it, so the loop
// strictly shrinks the scope set and terminates; a single-scope HIT is
// its one-share case. A batch then becomes a HIT of its live items,
// drawing its ID only now (other kinds drew theirs when opened), and
// the HIT is traced and launched. Last, the answers its caller
// resolved without the crowd are delivered, and a refused post's error
// after them. A batch's items are owned by the HIT once cut (nothing
// else edits their array), so drop filters them in place and the
// posted HIT keeps them as its item slots. No locks are held: posting
// calls into the backend and back into outcome callbacks.
func (m *Manager) postHIT(q queuedHIT) bool {
	fl, pol, def := q.fl, q.pol, q.fl.def
	var openedBuf [1]*Scope // a HIT usually has one scope
	opened := openedBuf[:0]
	var err error
	for _, sh := range fl.shares {
		sh.scope.addQueuedCost(-sh.cost)
		if cause := sh.scope.beginPost(); cause != nil {
			err = fl.drop(sh.scope, cause)
		} else {
			opened = append(opened, sh.scope)
		}
	}
	price := m.priceFor(def, pol)
	cost := budget.Cents(price * int64(fl.assign))
	for err == nil {
		fl.split(cost)
		failed := -1
		var ferr error
		for i := range fl.shares {
			if ferr = fl.shares[i].scope.spend(fl.shares[i].cost); ferr != nil {
				failed = i
				break
			}
		}
		if failed < 0 {
			break
		}
		for _, sh := range fl.shares[:failed] {
			sh.scope.refund(sh.cost)
		}
		err = fl.drop(fl.shares[failed].scope, ferr)
	}
	if err == nil {
		if aerr := m.account.Spend(cost); aerr != nil {
			for _, sh := range fl.shares {
				sh.scope.refund(sh.cost)
			}
			err = fmt.Errorf("taskmgr: %s: %w", def.Name, aerr)
		}
	}
	if err == nil {
		if fl.kind == kindBatch {
			fl.hit = &hit.HIT{
				ID:          m.market.NewHITID(),
				Task:        def.Name,
				Type:        def.Type,
				Title:       def.Name,
				Question:    batchQuestion(def, fl.items),
				Response:    responseFor(def),
				Assignments: fl.assign,
				Items:       make([]hit.Item, len(fl.items)),
			}
			for i, it := range fl.items {
				var prompt string
				if len(fl.items) > 1 {
					prompt = hit.RenderText(it.def.Text, it.def.TextArgs, it.def.Params, it.args)
				}
				fl.hit.Items[i] = hit.Item{Args: it.args, Prompt: prompt}
			}
		}
		fl.hit.RewardCents, fl.cost, fl.backend = price, cost, m.servingBackend(def)
		m.traceHITSpans(fl, pol, q.at)
		err = m.launch(q)
	}
	for _, sc := range opened {
		sc.endPost()
	}
	q.settle(err)
	return err == nil
}

// onAssignment collects one completed assignment of a HIT of any kind;
// when the HIT has all of them, it finalizes. Only one goroutine can
// observe received == needed under the table lock, so finalization runs
// exactly once, outside all locks.
func (m *Manager) onAssignment(res mturk.AssignmentResult) {
	t := &m.flights
	t.mu.Lock()
	fl, ok := t.hits[res.HITID]
	if !ok {
		t.mu.Unlock()
		return
	}
	fl.byWorker = append(fl.byWorker, res.Answers)
	fl.received++
	m.noteAssignment(fl, res.Answers.WorkerID)
	if fl.received < fl.needed {
		t.mu.Unlock()
		return
	}
	if fl.adaptive && fl.needed < fl.capA && !m.itemsConfident(fl) {
		// Posterior still unsure below the cap: keep the HIT in flight
		// and buy one more assignment. No other completion can race in —
		// every posted slot has reported — so this goroutine alone
		// decides extend-or-finalize.
		t.mu.Unlock()
		m.extendInflight(res.HITID, fl)
		return
	}
	delete(t.hits, res.HITID)
	t.mu.Unlock()
	m.retire(res.HITID, fl, nil)
}

// retire ends a HIT that has left the in-flight table with every
// assignment reported or failed: its scopes forget it, its admission
// slot frees, and it finalizes from the sheets it holds — or, when none
// arrived, fails everything it owes with err. Last, it is disposed of
// at its backend, whose copy of its items, answers and status would
// only grow a long-lived engine; that comes after the questions have
// resolved, so a backend whose Dispose makes a network call does not
// delay results. (Cancellation disposes through cancelScopeHIT.)
func (m *Manager) retire(hitID string, fl *inflightHIT, err error) {
	fl.unregister(hitID)
	m.hitRetired()
	if fl.received == 0 {
		m.noteHITAbandoned(fl, err)
		fl.fail(fmt.Errorf("taskmgr: %s: %v", fl.hit.Task, err))
	} else {
		m.finalizeInflight(fl)
	}
	m.market.Dispose(hitID)
}

// resolution is one question's outcome, held until every question of
// its HIT has been accounted for and the outcomes may be delivered. q
// is the question's position (for SubmitGroup and JoinBlockIn's free
// answers, the request's or the grid cell's).
type resolution struct {
	q   int
	out Outcome
}

// resolvedInline sizes the finalize paths' stack buffer of resolutions:
// a HIT with more questions spills it to the heap.
const resolvedInline = 8

// finalizeInflight resolves a completed (or partially failed) HIT of
// any kind. Every kind observes the round trip and journals it the same
// way; a comparison then resolves its rankings (finalizeRank), and the
// other kinds learn from every question in the HIT's question order, so
// reruns resolve identically: reduce (or take the EM posterior), feed
// the task's agreement and selectivity estimators and the workers'
// reputations, cache the answers, train the model, journal it all, and
// deliver the outcomes owed once every question is learned. A grid
// learns from every cell it showed but delivers only those its caller
// waits on; a group item learns under its own task's state. It must not
// hold any manager lock: outcome callbacks may reenter Submit.
func (m *Manager) finalizeInflight(fl *inflightHIT) {
	st := fl.state
	latencyMin := (m.market.Clock().Now() - fl.postedAt).Minutes()
	st.latency.Observe(latencyMin)
	j := m.getJournal()
	if j != nil {
		j.Append(store.Record{Kind: store.KindLatency, Task: fl.hit.Task, X: latencyMin})
	}
	if fl.adaptive {
		m.adaptiveHITs.Counter(m.metrics, obs.MetricAdaptiveHITs).Add(1)
		m.adaptiveUsed.Counter(m.metrics, obs.MetricAdaptiveAssigned).Add(int64(fl.assign))
		m.adaptiveCap.Counter(m.metrics, obs.MetricAdaptiveCap).Add(int64(fl.capA))
		if saved := int64(fl.capA-fl.assign) * fl.hit.RewardCents; saved > 0 {
			m.inferSaved.Counter(m.metrics, obs.MetricInferenceSaved).Add(saved)
		}
	}

	// Under an EM aggregator, resolve answers from one joint fit over
	// the whole HIT — worker accuracies and item posteriors estimated
	// together — and feed the fitted accuracies back as quality
	// evidence. The fit reads the same votes in the same order as the
	// adaptive loop's confidence checks, so the finalized answer is the
	// posterior that stopped the extensions.
	n := fl.hit.QuestionCount()
	var posts []infer.Posterior // by question; nil without a fit
	if em, ok := fl.agg.(*infer.EM); ok {
		votes, slots := fl.votesByItem()
		ps, accs := em.Fit(votes, fl.boolTask)
		posts = make([]infer.Posterior, n)
		for k, i := range slots {
			posts[i] = ps[k]
		}
		m.noteWorkerQuality(accs)
	}
	m.noteHITDone(fl, latencyMin, posts)
	if fl.kind == kindRank {
		m.finalizeRank(fl, j, latencyMin)
		return
	}

	// Each question learns under the policy of the query that asked it:
	// its share's scope, resolved once per share, or for a group item
	// its own task's policy under the group's scope.
	base := m.basePolicy()
	var polBuf [1]Policy
	pols := polBuf[:0]
	st.mu.Lock()
	for i := range fl.shares {
		pols = append(pols, st.scopedPolicyLocked(base, fl.shares[i].scope))
	}
	st.mu.Unlock()
	var resolvedBuf [resolvedInline]resolution
	resolved := resolvedBuf[:0]
	if n > resolvedInline {
		owed := 0
		for i := 0; i < n; i++ {
			if fl.owes(i) {
				owed++
			}
		}
		resolved = make([]resolution, 0, owed)
	}
	var agreeSum float64
	var agreeN int
	k := len(fl.byWorker)
	cols := byQuestion(fl.byWorker, n)
	for i := 0; i < n; i++ {
		qs, def, side, pol := st, fl.def, "", pols[0]
		var args []relation.Value
		var ckey cache.Key
		if fl.kind == kindGrid {
			args, ckey = fl.cells[i].args, fl.cells[i].ckey
		} else {
			item := &fl.items[i]
			if item.detached {
				continue
			}
			def, args, ckey, side = item.def, item.args, item.ckey, item.side
			if fl.kind == kindGroup {
				qs = m.state(def.Name, def)
				qs.mu.Lock()
				pol = qs.scopedPolicyLocked(base, item.scope)
				qs.mu.Unlock()
			} else {
				pol = pols[fl.shareOf(item.scope)]
			}
		}
		answers := answersOf(cols, i, k)
		out := reduce(def, answers)
		if posts != nil && len(answers) > 0 {
			out.Value = posts[i].Value
			out.Agreement = posts[i].Confidence
		}
		qs.agreement.Observe(out.Agreement)
		agreeSum += out.Agreement
		agreeN++
		if isBooleanTask(def) {
			qs.observeSelectivity(out.Value.Truthy(), side)
			m.noteWorkerVotes(fl.byWorker, i, out.Value.Truthy())
		}
		var enc cache.Answers
		if pol.UseCache {
			enc = cache.EncodeAnswers(answers)
			m.cache.Put(ckey, enc)
		}
		if pol.TrainModel && isBooleanTask(def) {
			if tm, ok := m.models.For(qs.name); ok {
				tm.Train(args, out.Value.Truthy())
			}
		}
		if j != nil {
			m.journalItem(j, pol, def, ckey, side, enc, out)
		}
		if fl.owes(i) {
			resolved = append(resolved, resolution{q: i, out: out})
		}
	}
	if agreeN > 0 {
		m.observeBackend(fl.backend, fl.hit.Type, fl.hit.RewardCents, latencyMin, agreeSum/float64(agreeN))
	}
	for _, r := range resolved {
		fl.deliver(r.q, r.out)
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
	states := m.states()
	out := make([]TaskStats, 0, len(states))
	for _, st := range states {
		out = append(out, st.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// stats reads the task's statistics: its counters from the registry
// series the task's events count on, its estimators directly.
func (st *taskState) stats() TaskStats {
	ts := TaskStats{
		Task:           st.name,
		Submitted:      st.submitted.Value(),
		QuestionsAsked: st.questions.Value(),
		CacheHits:      st.cacheHits.Value(),
		ModelAnswers:   st.modelAnswers.Value(),
		SpentCents:     budget.Cents(st.cost.Value()),
		Selectivity:    st.selectivity.Estimate(),
		SelTrials:      st.selectivity.Trials(),
		MeanLatencyMin: st.latency.Value(),
		MeanAgreement:  st.agreement.Value(),
	}
	st.mu.Lock()
	for _, bs := range st.backends {
		ts.HITsPosted += bs.hits.Value()
	}
	st.mu.Unlock()
	return ts
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

// StatsFor returns one task's statistics, or none under the task's
// lower-cased name when the manager has not seen it.
func (m *Manager) StatsFor(task string) TaskStats {
	m.mu.Lock()
	st, ok := m.spelled[task]
	if !ok {
		st = m.tasks[strings.ToLower(task)]
	}
	m.mu.Unlock()
	if st == nil {
		return TaskStats{Task: strings.ToLower(task)}
	}
	return st.stats()
}

// states snapshots the task registry.
func (m *Manager) states() []*taskState {
	m.mu.Lock()
	defer m.mu.Unlock()
	states := make([]*taskState, 0, len(m.tasks))
	for _, st := range m.tasks {
		states = append(states, st)
	}
	return states
}

// Pending reports the questions not yet posted: items waiting to fill a
// batch across all tasks, and the questions of every HIT, of any kind,
// waiting in the admission queue.
func (m *Manager) Pending() int {
	n := 0
	for _, st := range m.states() {
		st.mu.Lock()
		n += len(st.pending)
		st.mu.Unlock()
	}
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	for _, q := range m.sched.queue {
		n += q.fl.questions()
	}
	return n
}

// EstimatedRemainingCents prices the work not yet posted: each item
// waiting to fill a batch at its scoped policy's price × assignments ÷
// batch size (its share of the batch it will join), and each HIT in the
// admission queue at its provisional cost. HITs in flight count nothing:
// their cost is already spent.
func (m *Manager) EstimatedRemainingCents() budget.Cents {
	base := m.basePolicy()
	var cents float64
	for _, st := range m.states() {
		st.mu.Lock()
		for _, it := range st.pending {
			pol := st.scopedPolicyLocked(base, it.scope)
			if it.assignments > 0 {
				pol.Assignments = it.assignments
			}
			cents += float64(pol.PriceCents) * float64(pol.Assignments) / float64(pol.BatchSize)
		}
		st.mu.Unlock()
	}
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	for _, q := range m.sched.queue {
		for _, sh := range q.fl.shares {
			cents += float64(sh.cost)
		}
	}
	return budget.Cents(math.Round(cents))
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
		SharedHITs:     m.sharedHITs.Value(),
		CoBatchedItems: m.coBatched.Value(),
		HITsSaved:      m.sharedSaved.Value(),
		SavedCents:     budget.Cents(m.sharedCents.Value()),
	}
}

// Inflight reports posted HITs of every kind (batch, group, grid and
// comparison) that have not collected all assignments.
func (m *Manager) Inflight() int {
	m.flights.mu.Lock()
	defer m.flights.mu.Unlock()
	return len(m.flights.hits)
}
