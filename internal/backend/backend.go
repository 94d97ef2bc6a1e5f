package backend

import (
	"errors"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
)

// Backend is what the Task Manager posts HITs to. Its method set is the
// exact seam the manager used against the simulated marketplace; see the
// package documentation for the semantic contract each method carries.
type Backend interface {
	// Name identifies the backend in stats, journals, and dashboards
	// ("sim", "http", "llm", "router").
	Name() string
	// Clock is the clock the Task Manager should stamp and schedule on.
	Clock() *mturk.Clock
	// NewHITID mints a fresh, unique HIT identifier.
	NewHITID() string
	// Post registers the HIT and arranges for h.Assignments assignment
	// callbacks (or error-handler notifications for the shortfall).
	Post(h *hit.HIT, onAssignment func(mturk.AssignmentResult)) error
	// SubmitExternal injects one extra answer sheet into an open HIT;
	// a sheet that does not answer every question of the HIT fails.
	SubmitExternal(hitID string, ans hit.Answers) error
	// Dispose closes the HIT and returns its final status; ok is false
	// for an unknown ID.
	Dispose(hitID string) (mturk.HITStatus, bool)
	// Status reports a HIT's current status; ok is false for an unknown
	// ID.
	Status(hitID string) (mturk.HITStatus, bool)
	// SetErrorHandler installs the terminal-assignment-failure hook. Safe
	// to call before or after posting begins; in-flight work observes the
	// new handler on its next failure.
	SetErrorHandler(fn func(hitID string, err error))
	// SetWorkerFilter installs a per-worker eligibility predicate (nil
	// admits everyone). Same late-install semantics as SetErrorHandler.
	SetWorkerFilter(fn func(workerID string) bool)
	// Stats returns cumulative counters.
	Stats() mturk.Stats
}

// ErrExtendUnsupported reports a backend that cannot add assignments to
// a posted HIT; the adaptive redundancy loop falls back to posting at
// the full assignment cap.
var ErrExtendUnsupported = errors.New("backend: extending posted HITs unsupported")

// Extender is implemented by backends that can add assignment slots to
// an open HIT after posting (MTurk's CreateAdditionalAssignmentsForHIT).
// The adaptive redundancy loop posts at a HIT's minimum and extends one
// assignment at a time while the answer posterior stays unsure.
type Extender interface {
	// ExtendAssignments adds extra assignment slots to the open HIT,
	// arranging that many additional assignment callbacks. It fails on
	// unknown or already completed HITs.
	ExtendAssignments(hitID string, extra int) error
}

// Extend adds assignment slots via b's Extender, or reports
// ErrExtendUnsupported for backends without one.
func Extend(b Backend, hitID string, extra int) error {
	if e, ok := b.(Extender); ok {
		return e.ExtendAssignments(hitID, extra)
	}
	return ErrExtendUnsupported
}

// Pricer is implemented by backends whose per-assignment price differs
// from the posting policy's. The Task Manager quotes before charging:
// the quoted price becomes the HIT's RewardCents and the basis of every
// refund, so cheap backends genuinely cost less end to end.
type Pricer interface {
	// QuoteCents returns the per-assignment reward this backend charges
	// for one question of the given task, given the policy's price.
	QuoteCents(task string, tt qlang.TaskType, policyCents int64) int64
}

// TaskRouter is implemented by backends that delegate per task: the Task
// Manager asks where a task's HITs will land so observations are
// attributed to the serving backend, not the front.
type TaskRouter interface {
	// RouteFor names the backend that will serve the task's next HIT.
	RouteFor(task string, tt qlang.TaskType) string
}

// ServingName reports which backend will answer for the given task:
// routers are asked, everything else serves under its own name.
func ServingName(b Backend, task string, tt qlang.TaskType) string {
	if r, ok := b.(TaskRouter); ok {
		return r.RouteFor(task, tt)
	}
	return b.Name()
}

// Quote returns the per-assignment price b charges for the task, falling
// back to the policy price for backends without their own pricing.
func Quote(b Backend, task string, tt qlang.TaskType, policyCents int64) int64 {
	if p, ok := b.(Pricer); ok {
		return p.QuoteCents(task, tt, policyCents)
	}
	return policyCents
}
