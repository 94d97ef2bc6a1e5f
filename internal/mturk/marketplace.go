package mturk

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/hit"
)

// Claim is a worker pool's promise to complete one assignment.
type Claim struct {
	WorkerID string
	// Delay is the virtual time from now until submission (queueing
	// plus work time).
	Delay time.Duration
	// Answer produces the worker's answers; it runs at submission time.
	Answer func() (hit.Answers, error)
}

// WorkerPool supplies workers for posted HITs. Implemented by the
// synthetic crowd (internal/crowd) and by test fakes.
type WorkerPool interface {
	// Claim asks the pool to work on h starting at virtual time now.
	// ok=false means no worker is currently willing (the marketplace
	// retries after a backoff). h is immutable once posted, so the
	// claim's Answer may read it when the assignment completes instead
	// of copying what it needs at claim time.
	Claim(h *hit.HIT, now VirtualTime) (Claim, bool)
}

// AssignmentResult is delivered to the requester for every completed
// assignment.
type AssignmentResult struct {
	HITID       string
	Answers     hit.Answers
	SubmittedAt VirtualTime
	// External marks submissions from the live task-completion UI
	// rather than the simulated crowd.
	External bool
}

// HITStatus describes a posted HIT's lifecycle for the dashboard.
type HITStatus struct {
	HIT       *hit.HIT
	PostedAt  VirtualTime
	Completed int
	// Extended counts assignment slots added after posting via
	// ExtendAssignments. It lives here rather than on the HIT so the
	// posted HIT stays immutable under concurrent readers.
	Extended int
	DoneAt   VirtualTime // valid when Completed == Assignments+Extended
	Spent    budget.Cents
}

// Open reports whether assignments remain outstanding.
func (s HITStatus) Open() bool { return s.Completed < s.HIT.Assignments+s.Extended }

type postedHIT struct {
	status   HITStatus
	callback func(AssignmentResult)
}

// Stats are marketplace-wide counters for the dashboard. They are
// maintained as atomics, so a snapshot taken while assignments complete
// concurrently may be off by the in-flight increment — fine for a
// dashboard, and it keeps Stats() off every shard's lock.
type Stats struct {
	HITsPosted           int
	AssignmentsCompleted int
	QuestionsAnswered    int // assignments × batched questions
	SpentCents           budget.Cents
	ExternalSubmissions  int
}

// DefaultMarketShards is the number of lock stripes HIT state is
// partitioned across (a power of two; HIT IDs hash uniformly).
const DefaultMarketShards = 16

// marketShard is one independently locked partition of posted HITs.
// The padding keeps shard locks on separate cache lines.
type marketShard struct {
	mu   sync.Mutex
	hits map[string]*postedHIT
	_    [40]byte
}

// Marketplace accepts HITs and routes them to a worker pool under the
// virtual clock, mimicking MTurk's requester API surface. State is
// sharded by HIT ID (see the package comment), so concurrent Post,
// complete and Status calls only contend when they hit the same shard.
type Marketplace struct {
	clock *Clock
	pool  WorkerPool

	// RetryBackoff is the virtual delay before re-asking the pool when
	// no worker is available or a worker abandons an assignment.
	RetryBackoff time.Duration
	// MaxRetries bounds abandons per assignment before the HIT errors
	// out. At least 1 attempt is always made.
	MaxRetries int

	shards []marketShard
	nextID atomic.Int64

	hitsPosted           atomic.Int64
	assignmentsCompleted atomic.Int64
	questionsAnswered    atomic.Int64
	spentCents           atomic.Int64
	externalSubmissions  atomic.Int64

	// autoDispose drops a HIT's state the moment its last assignment
	// completes (after handing the final status to the observer), like
	// MTurk's DeleteHIT. It bounds memory when millions of HITs flow
	// through a long-running marketplace; dashboards that want history
	// leave it off.
	autoDispose atomic.Bool

	// cfgMu guards the rarely written callbacks below.
	cfgMu      sync.RWMutex
	onDisposed func(HITStatus)
	onError    func(hitID string, err error)
	// workerFilter, when set, vets each claim's worker; rejected
	// claims are re-dispatched after the retry backoff (like an MTurk
	// qualification requirement).
	workerFilter func(workerID string) bool
}

// NewMarketplace wires a marketplace to a clock and worker pool.
func NewMarketplace(clock *Clock, pool WorkerPool) *Marketplace {
	m := &Marketplace{
		clock:        clock,
		pool:         pool,
		RetryBackoff: 30 * time.Second,
		MaxRetries:   10,
		shards:       make([]marketShard, DefaultMarketShards),
	}
	for i := range m.shards {
		m.shards[i].hits = make(map[string]*postedHIT)
	}
	return m
}

// shardFor routes a HIT ID to its shard.
func (m *Marketplace) shardFor(hitID string) *marketShard {
	return &m.shards[ShardIndex(hitID, len(m.shards))]
}

// Clock returns the marketplace's virtual clock.
func (m *Marketplace) Clock() *Clock { return m.clock }

// SetErrorHandler installs a callback for assignments that exhaust their
// retries; the default drops them silently counted in stats.
//
// Installation is safe at any time, including after posting begins:
// the handler is read under cfgMu at each failure, so in-flight HITs
// observe the new handler on their next failure. Hooks installed from
// another goroutine while the clock runs are fine; what cannot work is
// expecting a late handler to re-deliver failures that already fired.
func (m *Marketplace) SetErrorHandler(fn func(hitID string, err error)) {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	m.onError = fn
}

// SetWorkerFilter installs a qualification predicate: claims by workers
// it rejects are re-dispatched to someone else. nil accepts everyone.
//
// Like SetErrorHandler, installation is safe after posting begins: the
// filter is read under cfgMu at each claim dispatch, so already-posted
// HITs apply the new predicate to every assignment still unclaimed.
// Assignments completed before installation are not revoked — backends
// installing hooks lazily (the router does) lose no safety, only the
// chance to filter work that already finished.
func (m *Marketplace) SetWorkerFilter(fn func(workerID string) bool) {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	m.workerFilter = fn
}

// SetAutoDispose switches automatic disposal of fully completed HITs on
// or off. observer (optional) receives each HIT's final status right
// before its state is dropped — the only way to see per-HIT lifecycle
// data in this mode, since Status/AllHITs no longer will.
func (m *Marketplace) SetAutoDispose(on bool, observer func(HITStatus)) {
	m.cfgMu.Lock()
	m.onDisposed = observer
	m.cfgMu.Unlock()
	m.autoDispose.Store(on)
}

// Dispose removes a HIT's state (like MTurk's DeleteHIT), returning its
// last status. Late submissions for a disposed HIT are discarded.
func (m *Marketplace) Dispose(hitID string) (HITStatus, bool) {
	sh := m.shardFor(hitID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ph, ok := sh.hits[hitID]
	if !ok {
		return HITStatus{}, false
	}
	delete(sh.hits, hitID)
	return ph.status, true
}

func (m *Marketplace) workerAllowed(workerID string) bool {
	m.cfgMu.RLock()
	fn := m.workerFilter
	m.cfgMu.RUnlock()
	return fn == nil || fn(workerID)
}

// NewHITID issues a process-unique HIT identifier ("HIT-%06d").
func (m *Marketplace) NewHITID() string {
	return PaddedID("HIT-", m.nextID.Add(1))
}

// Post publishes a HIT. onAssignment is invoked (on the clock goroutine)
// once per completed assignment, h.Assignments times in total unless
// retries are exhausted.
func (m *Marketplace) Post(h *hit.HIT, onAssignment func(AssignmentResult)) error {
	if err := h.Validate(); err != nil {
		return err
	}
	now := m.clock.Now()
	ph := &postedHIT{
		status:   HITStatus{HIT: h, PostedAt: now},
		callback: onAssignment,
	}
	sh := m.shardFor(h.ID)
	sh.mu.Lock()
	if _, dup := sh.hits[h.ID]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("mturk: duplicate HIT id %s", h.ID)
	}
	sh.hits[h.ID] = ph
	sh.mu.Unlock()
	m.hitsPosted.Add(1)
	for i := 0; i < h.Assignments; i++ {
		m.dispatch(h, 0)
	}
	return nil
}

// dispatch asks the pool for one assignment's claim and schedules its
// completion.
func (m *Marketplace) dispatch(h *hit.HIT, attempt int) {
	claim, ok := m.pool.Claim(h, m.clock.Now())
	if !ok || !m.workerAllowed(claim.WorkerID) {
		if attempt >= m.MaxRetries {
			m.assignmentFailed(h.ID, fmt.Errorf("mturk: no eligible worker after %d attempts", attempt))
			return
		}
		m.clock.Schedule(m.RetryBackoff, func() { m.dispatch(h, attempt+1) })
		return
	}
	m.clock.Schedule(claim.Delay, func() {
		ans, err := claim.Answer()
		if err != nil {
			// Abandoned/rejected assignment: repost.
			if attempt >= m.MaxRetries {
				m.assignmentFailed(h.ID, fmt.Errorf("mturk: assignment abandoned %d times: %v", attempt+1, err))
				return
			}
			m.clock.Schedule(m.RetryBackoff, func() { m.dispatch(h, attempt+1) })
			return
		}
		ans.WorkerID = claim.WorkerID
		m.complete(h.ID, ans, false)
	})
}

// complete records one finished assignment and notifies the requester.
func (m *Marketplace) complete(hitID string, ans hit.Answers, external bool) {
	sh := m.shardFor(hitID)
	sh.mu.Lock()
	ph, ok := sh.hits[hitID]
	if !ok || !ph.status.Open() {
		// Slot already filled (e.g. an external submission raced a
		// simulated worker): the extra work is discarded unpaid,
		// like MTurk rejecting a submission on an expired HIT.
		sh.mu.Unlock()
		return
	}
	ph.status.Completed++
	ph.status.Spent += budget.Cents(ph.status.HIT.RewardCents)
	now := m.clock.Now()
	disposed := false
	if !ph.status.Open() {
		ph.status.DoneAt = now
		if m.autoDispose.Load() {
			delete(sh.hits, hitID)
			disposed = true
		}
	}
	questions := ph.status.HIT.QuestionCount()
	reward := ph.status.HIT.RewardCents
	cb := ph.callback
	final := ph.status
	sh.mu.Unlock()
	if disposed {
		m.cfgMu.RLock()
		observer := m.onDisposed
		m.cfgMu.RUnlock()
		if observer != nil {
			observer(final)
		}
	}
	m.assignmentsCompleted.Add(1)
	m.questionsAnswered.Add(int64(questions))
	m.spentCents.Add(reward)
	if external {
		m.externalSubmissions.Add(1)
	}
	if cb != nil {
		cb(AssignmentResult{HITID: hitID, Answers: ans, SubmittedAt: now, External: external})
	}
}

func (m *Marketplace) assignmentFailed(hitID string, err error) {
	m.cfgMu.RLock()
	fn := m.onError
	m.cfgMu.RUnlock()
	if fn != nil {
		fn(hitID, err)
	}
}

// ExtendAssignments adds extra assignment slots to a posted HIT (like
// MTurk's CreateAdditionalAssignmentsForHIT) and dispatches claims for
// them. A HIT whose posted assignments have all completed but that has
// not been disposed may still be extended — MTurk allows the same on
// Reviewable HITs, and the adaptive redundancy loop decides to extend
// exactly when the last assignment arrives — the extension simply
// reopens it (DoneAt is rewritten when it closes again). Unknown (or
// auto-disposed) HITs fail; the posted HIT itself is never mutated —
// the extension lives in the status.
func (m *Marketplace) ExtendAssignments(hitID string, extra int) error {
	if extra <= 0 {
		return fmt.Errorf("mturk: extend HIT %s by %d assignments", hitID, extra)
	}
	sh := m.shardFor(hitID)
	sh.mu.Lock()
	ph, ok := sh.hits[hitID]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("mturk: unknown HIT %s", hitID)
	}
	ph.status.Extended += extra
	h := ph.status.HIT
	sh.mu.Unlock()
	for i := 0; i < extra; i++ {
		m.dispatch(h, 0)
	}
	return nil
}

// SubmitExternal accepts an assignment from a live human (the demo's
// audience task-completion interface). It fails when the HIT is unknown
// or already fully assigned.
func (m *Marketplace) SubmitExternal(hitID string, ans hit.Answers) error {
	sh := m.shardFor(hitID)
	sh.mu.Lock()
	ph, ok := sh.hits[hitID]
	open := ok && ph.status.Open()
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("mturk: unknown HIT %s", hitID)
	}
	if !open {
		return fmt.Errorf("mturk: HIT %s has no open assignments", hitID)
	}
	m.complete(hitID, ans, true)
	return nil
}

// Status returns a HIT's lifecycle snapshot.
func (m *Marketplace) Status(hitID string) (HITStatus, bool) {
	sh := m.shardFor(hitID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ph, ok := sh.hits[hitID]
	if !ok {
		return HITStatus{}, false
	}
	return ph.status, true
}

// OpenHITs lists HITs with outstanding assignments, oldest first, for
// the task-completion UI. Each shard is snapshotted under its own lock;
// the merge and sort run outside all locks, so dashboard polling never
// stalls query execution.
func (m *Marketplace) OpenHITs() []HITStatus {
	return m.snapshot(true)
}

// AllHITs lists every posted HIT, oldest first.
func (m *Marketplace) AllHITs() []HITStatus {
	return m.snapshot(false)
}

func (m *Marketplace) snapshot(openOnly bool) []HITStatus {
	var out []HITStatus
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, ph := range sh.hits {
			if !openOnly || ph.status.Open() {
				out = append(out, ph.status)
			}
		}
		sh.mu.Unlock()
	}
	sortStatuses(out)
	return out
}

func sortStatuses(ss []HITStatus) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].PostedAt != ss[j].PostedAt {
			return ss[i].PostedAt < ss[j].PostedAt
		}
		return ss[i].HIT.ID < ss[j].HIT.ID
	})
}

// Stats returns marketplace-wide counters.
func (m *Marketplace) Stats() Stats {
	return Stats{
		HITsPosted:           int(m.hitsPosted.Load()),
		AssignmentsCompleted: int(m.assignmentsCompleted.Load()),
		QuestionsAnswered:    int(m.questionsAnswered.Load()),
		SpentCents:           budget.Cents(m.spentCents.Load()),
		ExternalSubmissions:  int(m.externalSubmissions.Load()),
	}
}
