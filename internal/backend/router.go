package backend

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
)

// Router multiplexes per-task backend decisions: each HIT is posted to
// the backend a task pin, an installed chooser, or the default selects.
// Quoting and posting route identically (both go through RouteFor), so
// the price the Task Manager charges is the price the serving backend
// collects. All member backends must share one clock — the router's
// determinism is exactly its members'.
type Router struct {
	def      string
	backends map[string]Backend
	nextID   atomic.Int64

	mu      sync.Mutex
	pins    map[string]string // task name → backend name
	byHIT   map[string]*routedHIT
	quotes  map[string]quote // task name → last quote, for savings
	hitsBy  map[string]int64 // HITs posted per backend name
	savedC  int64            // cents saved vs the policy price
	chooser func(task string, tt qlang.TaskType) string
}

// routedHIT remembers where a HIT landed and how many assignments are
// still expected. Once every assignment has landed or failed the HIT is
// completed: Status, SubmitExternal and ExtendAssignments treat it as
// unknown, but the entry stays until Dispose retires it, so the dispose
// still reaches the member that holds the HIT.
type routedHIT struct {
	backend string
	left    int
}

// quote is one task's last (policy, quoted) price pair.
type quote struct {
	policy, quoted int64
}

// NewRouter builds a router over named backends. Every backend must
// share the first one's clock; dflt names the backend unrouted tasks
// use and must be a member.
func NewRouter(dflt string, backends ...Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("backend: router needs at least one backend")
	}
	r := &Router{
		def:      dflt,
		backends: make(map[string]Backend, len(backends)),
		pins:     make(map[string]string),
		byHIT:    make(map[string]*routedHIT),
		quotes:   make(map[string]quote),
		hitsBy:   make(map[string]int64),
	}
	clock := backends[0].Clock()
	for _, b := range backends {
		if _, dup := r.backends[b.Name()]; dup {
			return nil, fmt.Errorf("backend: router: duplicate backend %q", b.Name())
		}
		if b.Clock() != clock {
			return nil, fmt.Errorf("backend: router: backend %q is on a different clock", b.Name())
		}
		r.backends[b.Name()] = b
	}
	if _, ok := r.backends[dflt]; !ok {
		return nil, fmt.Errorf("backend: router: unknown default backend %q", dflt)
	}
	return r, nil
}

// Pin routes every HIT of the named task to one backend (the qlang
// `Backend:` property lands here).
func (r *Router) Pin(task, backendName string) error {
	if _, ok := r.backends[backendName]; !ok {
		return fmt.Errorf("backend: router: unknown backend %q for task %s", backendName, task)
	}
	r.mu.Lock()
	r.pins[task] = backendName
	r.mu.Unlock()
	return nil
}

// SetChooser installs the per-task decision function consulted for
// unpinned tasks (the optimizer's ChooseBackend lands here). A chooser
// returning an unknown name falls back to the default backend.
func (r *Router) SetChooser(fn func(task string, tt qlang.TaskType) string) {
	r.mu.Lock()
	r.chooser = fn
	r.mu.Unlock()
}

// RouteFor implements TaskRouter: pin, then chooser, then default.
func (r *Router) RouteFor(task string, tt qlang.TaskType) string {
	r.mu.Lock()
	pinned, ok := r.pins[task]
	chooser := r.chooser
	r.mu.Unlock()
	if ok {
		return pinned
	}
	if chooser != nil {
		if name := chooser(task, tt); name != "" {
			if _, known := r.backends[name]; known {
				return name
			}
		}
	}
	return r.def
}

// target resolves a task's serving backend.
func (r *Router) target(task string, tt qlang.TaskType) Backend {
	return r.backends[r.RouteFor(task, tt)]
}

// QuoteCents implements Pricer by quoting the serving backend, and
// remembers the (policy, quote) pair so Post can account the savings.
func (r *Router) QuoteCents(task string, tt qlang.TaskType, policyCents int64) int64 {
	quoted := Quote(r.target(task, tt), task, tt, policyCents)
	r.mu.Lock()
	r.quotes[task] = quote{policy: policyCents, quoted: quoted}
	r.mu.Unlock()
	return quoted
}

// Name implements Backend.
func (r *Router) Name() string { return "router" }

// Clock implements Backend: the shared member clock.
func (r *Router) Clock() *mturk.Clock { return r.backends[r.def].Clock() }

// NewHITID implements Backend. The router mints its own namespace so
// IDs stay unique across members.
func (r *Router) NewHITID() string { return mturk.PaddedID("RHIT-", r.nextID.Add(1)) }

// Post implements Backend: the HIT goes to the serving backend, and the
// routing table marks the entry completed after its last expected
// assignment.
func (r *Router) Post(h *hit.HIT, onAssignment func(mturk.AssignmentResult)) error {
	name := r.RouteFor(h.Task, h.Type)
	b := r.backends[name]
	r.mu.Lock()
	if _, dup := r.byHIT[h.ID]; dup {
		r.mu.Unlock()
		return fmt.Errorf("backend: router: duplicate HIT %s", h.ID)
	}
	r.byHIT[h.ID] = &routedHIT{backend: name, left: h.Assignments}
	r.mu.Unlock()
	wrapped := func(res mturk.AssignmentResult) {
		if !res.External {
			r.mu.Lock()
			if rh, ok := r.byHIT[res.HITID]; ok {
				rh.left--
			}
			r.mu.Unlock()
		}
		onAssignment(res)
	}
	if err := b.Post(h, wrapped); err != nil {
		r.mu.Lock()
		delete(r.byHIT, h.ID)
		r.mu.Unlock()
		return err
	}
	r.mu.Lock()
	r.hitsBy[name]++
	if q, ok := r.quotes[h.Task]; ok && q.quoted == h.RewardCents && q.policy > q.quoted {
		r.savedC += (q.policy - q.quoted) * int64(h.Assignments)
	}
	r.mu.Unlock()
	return nil
}

// resolve finds the backend serving a posted HIT that still expects
// assignments.
func (r *Router) resolve(hitID string) (Backend, bool) {
	r.mu.Lock()
	rh, ok := r.byHIT[hitID]
	ok = ok && rh.left > 0
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return r.backends[rh.backend], true
}

// ExtendAssignments implements Extender: the extension goes to the
// serving backend, and the routing entry expects the extra completions.
// Serving backends without an Extender report ErrExtendUnsupported.
func (r *Router) ExtendAssignments(hitID string, extra int) error {
	b, ok := r.resolve(hitID)
	if !ok {
		return fmt.Errorf("backend: router: unknown HIT %s", hitID)
	}
	r.mu.Lock()
	rh, ok := r.byHIT[hitID]
	if !ok || rh.left <= 0 {
		// The last expected assignment landed (or Dispose retired the
		// entry) between resolve and here; a completed HIT cannot be
		// extended.
		r.mu.Unlock()
		return fmt.Errorf("backend: router: HIT %s already completed", hitID)
	}
	rh.left += extra
	r.mu.Unlock()
	if err := Extend(b, hitID, extra); err != nil {
		r.mu.Lock()
		if rh, ok := r.byHIT[hitID]; ok {
			rh.left -= extra
		}
		r.mu.Unlock()
		return err
	}
	return nil
}

// SubmitExternal implements Backend.
func (r *Router) SubmitExternal(hitID string, ans hit.Answers) error {
	b, ok := r.resolve(hitID)
	if !ok {
		return fmt.Errorf("backend: router: unknown HIT %s", hitID)
	}
	return b.SubmitExternal(hitID, ans)
}

// Dispose implements Backend and retires the routing entry, open or
// completed.
func (r *Router) Dispose(hitID string) (mturk.HITStatus, bool) {
	r.mu.Lock()
	rh, ok := r.byHIT[hitID]
	delete(r.byHIT, hitID)
	r.mu.Unlock()
	if !ok {
		return mturk.HITStatus{}, false
	}
	return r.backends[rh.backend].Dispose(hitID)
}

// Status implements Backend.
func (r *Router) Status(hitID string) (mturk.HITStatus, bool) {
	b, ok := r.resolve(hitID)
	if !ok {
		return mturk.HITStatus{}, false
	}
	return b.Status(hitID)
}

// SetErrorHandler implements Backend, forwarding to every member. The
// handler is wrapped so terminally failed assignments also count down
// the routing entry: a HIT whose last assignment failed is completed,
// like one whose last assignment landed.
func (r *Router) SetErrorHandler(fn func(hitID string, err error)) {
	wrapped := func(hitID string, err error) {
		r.mu.Lock()
		if rh, ok := r.byHIT[hitID]; ok {
			rh.left--
		}
		r.mu.Unlock()
		if fn != nil {
			fn(hitID, err)
		}
	}
	for _, b := range r.backends {
		b.SetErrorHandler(wrapped)
	}
}

// SetWorkerFilter implements Backend, forwarding to every member.
func (r *Router) SetWorkerFilter(fn func(workerID string) bool) {
	for _, b := range r.backends {
		b.SetWorkerFilter(fn)
	}
}

// Stats implements Backend: the sum over members.
func (r *Router) Stats() mturk.Stats {
	var out mturk.Stats
	for _, b := range r.backends {
		st := b.Stats()
		out.HITsPosted += st.HITsPosted
		out.AssignmentsCompleted += st.AssignmentsCompleted
		out.QuestionsAnswered += st.QuestionsAnswered
		out.SpentCents += st.SpentCents
		out.ExternalSubmissions += st.ExternalSubmissions
	}
	return out
}

// Counts returns HITs posted per backend name (a copy) and the cents
// routing saved versus the policy price — the dashboard's backends line.
func (r *Router) Counts() (map[string]int64, budget.Cents) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.hitsBy))
	for name, n := range r.hitsBy {
		out[name] = n
	}
	return out, budget.Cents(r.savedC)
}

// Members lists the member backend names, default first, then sorted.
func (r *Router) Members() []string {
	out := []string{r.def}
	var rest []string
	for name := range r.backends {
		if name != r.def {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}
