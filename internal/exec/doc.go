// Package exec runs logical plans from internal/plan against the crowd
// through a hybrid Volcano executor.
//
// # Iterator composition
//
// Every operator implements Iterator (Next/Close/Stable). Call-free
// operators — Scan, Filter and Project without human tasks, local joins,
// Distinct, Limit, OrderBy and Aggregate over local keys — fuse into a
// single pull chain that runs in the consumer's goroutine: a call to the
// root's Next pulls exactly one tuple through the whole local pipeline
// with no channels, goroutines or per-operator buffering. Operators that
// wait on humans (filters/projections whose expressions call script
// tasks, human joins, PreFilter, Rank) keep a producer goroutine and are
// bridged into the chain through a bounded queue (queueIter), so HIT
// batching and asynchrony are preserved where they pay and avoided where
// they don't. Steady-state allocation is O(pipeline depth), not O(rows).
//
// # Tuple ownership
//
// A tuple returned by Next is transient unless the iterator's Stable()
// reports true: it remains valid only until the next Next or Close on
// that iterator, because pull-chain operators reuse scratch buffers and
// sorting operators recycle emitted rows through a sync.Pool
// (release-on-emit). A consumer that retains tuples past the next pull
// must clone them; ensureStable wraps any iterator with a cloning
// adapter, and the sink clones transient roots before publishing to the
// results table. Buffers travel through bufPool: getBuf hands out pooled
// value slices, putBuf zeroes and returns them.
//
// Closing the root propagates Close upstream, so LIMIT and cancellation
// stop scans and upstream producers early instead of draining them.
//
// # Call-site binding
//
// A human operator binds its expressions' task calls once, when it
// starts (bindCalls): the distinct invocations in first-appearance order
// with their task definitions, and a map from every call node to its
// invocation's slot. Field projections of one call share a slot. Per
// tuple, the operator evaluates all call arguments into one block before
// submitting anything, submits one request per slot, and gathers the
// answers into a slot-indexed []relation.Value that eval reads; no call
// is printed or its arguments encoded per tuple just to dedupe it.
//
// # Virtual-time determinism
//
// Producer goroutines run beside the clock pump of the task manager's
// backend. Each of them holds that clock's quiescence gate while
// runnable and releases it only while parked on a gated primitive: an
// operator queue (queue.NewGated), a quiesce.WaitGroup for outstanding
// HIT callbacks, or the filter window's quiesce.Sem. Whoever wakes a
// parked goroutine holds the gate for it first. The pump steps only
// while the gate is idle, so every tuple a producer can submit is
// submitted before virtual time moves, and HIT posting times, linger
// flushes and crowd draws are a pure function of the seed at any
// GOMAXPROCS.
//
// # Plan caching
//
// The executor itself is stateless across queries; plan reuse lives in
// internal/core's normalized-SQL plan cache (literal-stripped
// fingerprints from qlang.NormalizeQuery, re-validated against the live
// pre-filter cost decisions on every hit). See internal/core/plancache.go.
package exec
