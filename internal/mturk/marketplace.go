package mturk

import (
	"fmt"
	"sort"
	"strconv"
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
	// Answer delivers the worker's answer sheet (see hit.Answers); it
	// runs at submission time. An error means the worker abandoned the
	// assignment, which is reposted. A sheet that does not answer every
	// question of the HIT fails the assignment.
	Answer func() (hit.Answers, error)
}

// WorkerPool supplies workers for posted HITs. Implemented by the
// synthetic crowd (internal/crowd) and by test fakes.
type WorkerPool interface {
	// Claim asks the pool to work on h starting at virtual time now.
	// ok=false means no worker is currently willing (the marketplace
	// retries after a backoff). h is immutable once posted, so a pool
	// may read it at claim time or when the assignment completes,
	// without copying it.
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
// dashboard, and it keeps Stats() off the marketplace's lock.
type Stats struct {
	HITsPosted           int
	AssignmentsCompleted int
	QuestionsAnswered    int // assignments × batched questions
	SpentCents           budget.Cents
	ExternalSubmissions  int
}

// Marketplace accepts HITs and routes them to a worker pool under the
// virtual clock, mimicking MTurk's requester API surface.
type Marketplace struct {
	clock *Clock
	pool  WorkerPool

	// RetryBackoff is the virtual delay before re-asking the pool when
	// no worker is available or a worker abandons an assignment.
	RetryBackoff time.Duration
	// MaxRetries bounds abandons per assignment before the HIT errors
	// out. At least 1 attempt is always made.
	MaxRetries int

	mu     sync.Mutex
	hits   map[string]*postedHIT // posted and not disposed; mu held
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
	return &Marketplace{
		clock:        clock,
		pool:         pool,
		RetryBackoff: 30 * time.Second,
		MaxRetries:   10,
		hits:         make(map[string]*postedHIT),
	}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	ph, ok := m.hits[hitID]
	if !ok {
		return HITStatus{}, false
	}
	delete(m.hits, hitID)
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

// PaddedID formats prefix + n zero-padded to at least 6 digits (the
// "%06d" format of HIT IDs) without fmt overhead: IDs are minted on
// posting hot paths. It formats into a stack buffer, so only the ID's
// string is allocated.
func PaddedID(prefix string, n int64) string {
	var stack [32]byte
	buf := append(stack[:0], prefix...)
	for pad := int64(100000); n < pad && pad > 1; pad /= 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendInt(buf, n, 10)
	return string(buf)
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
	m.mu.Lock()
	if _, dup := m.hits[h.ID]; dup {
		m.mu.Unlock()
		return fmt.Errorf("mturk: duplicate HIT id %s", h.ID)
	}
	m.hits[h.ID] = ph
	m.mu.Unlock()
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
		if err := h.CheckAnswers(ans); err != nil {
			// The pool is pluggable: a sheet it got wrong would be
			// wrong on every retry, so the assignment fails.
			m.assignmentFailed(h.ID, fmt.Errorf("mturk: %s's assignment: %w", claim.WorkerID, err))
			return
		}
		ans.WorkerID = claim.WorkerID
		m.complete(h.ID, ans, false)
	})
}

// complete records one finished assignment and notifies the requester.
func (m *Marketplace) complete(hitID string, ans hit.Answers, external bool) {
	m.mu.Lock()
	ph, ok := m.hits[hitID]
	if !ok || !ph.status.Open() {
		// Slot already filled (e.g. an external submission raced a
		// simulated worker): the extra work is discarded unpaid,
		// like MTurk rejecting a submission on an expired HIT.
		m.mu.Unlock()
		return
	}
	ph.status.Completed++
	ph.status.Spent += budget.Cents(ph.status.HIT.RewardCents)
	now := m.clock.Now()
	disposed := false
	if !ph.status.Open() {
		ph.status.DoneAt = now
		if m.autoDispose.Load() {
			delete(m.hits, hitID)
			disposed = true
		}
	}
	questions := ph.status.HIT.QuestionCount()
	reward := ph.status.HIT.RewardCents
	cb := ph.callback
	final := ph.status
	m.mu.Unlock()
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
	m.mu.Lock()
	ph, ok := m.hits[hitID]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("mturk: unknown HIT %s", hitID)
	}
	ph.status.Extended += extra
	h := ph.status.HIT
	m.mu.Unlock()
	for i := 0; i < extra; i++ {
		m.dispatch(h, 0)
	}
	return nil
}

// SubmitExternal accepts an assignment from a live human (the demo's
// audience task-completion interface). It fails when the HIT is unknown
// or already fully assigned, or when ans does not answer every question
// of the HIT.
func (m *Marketplace) SubmitExternal(hitID string, ans hit.Answers) error {
	m.mu.Lock()
	ph, ok := m.hits[hitID]
	open := ok && ph.status.Open()
	var h *hit.HIT
	if ok {
		h = ph.status.HIT
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("mturk: unknown HIT %s", hitID)
	}
	if !open {
		return fmt.Errorf("mturk: HIT %s has no open assignments", hitID)
	}
	if err := h.CheckAnswers(ans); err != nil {
		return fmt.Errorf("mturk: %w", err)
	}
	m.complete(hitID, ans, true)
	return nil
}

// Status returns a HIT's lifecycle snapshot.
func (m *Marketplace) Status(hitID string) (HITStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ph, ok := m.hits[hitID]
	if !ok {
		return HITStatus{}, false
	}
	return ph.status, true
}

// OpenHITs lists HITs with outstanding assignments, oldest first, for
// the task-completion UI. The statuses are copied under the lock and
// sorted outside it, so dashboard polling stalls query execution only
// for the copy.
func (m *Marketplace) OpenHITs() []HITStatus {
	return m.snapshot(true)
}

// AllHITs lists every posted HIT, oldest first.
func (m *Marketplace) AllHITs() []HITStatus {
	return m.snapshot(false)
}

func (m *Marketplace) snapshot(openOnly bool) []HITStatus {
	var out []HITStatus
	m.mu.Lock()
	for _, ph := range m.hits {
		if !openOnly || ph.status.Open() {
			out = append(out, ph.status)
		}
	}
	m.mu.Unlock()
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
