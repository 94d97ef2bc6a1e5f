// Package backend defines the worker-backend contract: the narrow seam
// between the Task Manager (internal/taskmgr) and whatever actually
// answers HITs. The paper's engine posts to Amazon Mechanical Turk; this
// repo grew up against an in-process simulator. Extracting the seam lets
// the same Task Manager drive the simulator, a real MTurk-shaped HTTP
// service, an LLM worker crowd, or a per-task mix of all three — and
// lets the optimizer choose *where* work runs the same way it already
// chooses sort strategy and join pre-filters.
//
// # Contract
//
// A Backend must honor the semantics the Task Manager was built against
// (they are exactly the simulated marketplace's):
//
//   - Post registers the HIT and eventually delivers h.Assignments
//     assignment callbacks, each carrying one worker's answer sheet: a
//     value for every question of the HIT, in question order (see
//     hit.Answers). Callbacks may arrive on any goroutine, but
//     never before Post returns its nil error, and never again after the
//     HIT has been disposed. An assignment that can never complete must
//     be reported through the error handler instead — the Task Manager
//     uses those to finalize with fewer votes and refund the remainder.
//   - Post must reject a duplicate HIT ID. IDs come from NewHITID and
//     must be unique per backend instance for its lifetime.
//   - Dispose closes the HIT to further assignments and returns its
//     final status. status.Spent must equal RewardCents × completed
//     assignments at that instant: the Task Manager refunds
//     cost − Spent, so a backend that over- or under-reports Spent
//     corrupts the ledger.
//   - SubmitExternal injects one extra answer for an open HIT (the REPL
//     and tests use it); it does not count toward the posted assignment
//     plan.
//   - Clock returns the clock the backend schedules against. The Task
//     Manager stamps postedAt, measures latency, and schedules linger
//     flushes on this clock, so a backend must return a live clock even
//     if (like the HTTP driver) its own completions ride wall time.
//
// # Idempotency
//
// Backends that cross a network must make re-posting safe: the HTTP
// driver sends the HIT ID as an idempotency token so a POST retried
// after a timeout or 5xx lands at most once server-side — a retry can
// never double-spend the account.
//
// # Determinism
//
// The reference Sim backend wraps the in-process marketplace unchanged:
// all completions are scheduled on the discrete-event virtual clock, so
// a seeded run replays identically and every result and spend figure is
// a pure function of the workload. The LLM backend keeps
// the same property by scheduling its model answers on the shared
// virtual clock. Only the HTTP driver introduces wall-clock time, and it
// is excluded from the deterministic verify paths for that reason.
package backend
