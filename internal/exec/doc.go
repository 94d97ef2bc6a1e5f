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
// # Compiled programs and call-site binding
//
// Compile turns a plan into an immutable Program once. Each operator's
// expressions are compiled against its fixed input schema: a column
// reference becomes its slot in the input tuple, a literal an index into
// the query's parameter values, and a human task call its slot in the
// operator's binding. The binding holds the distinct invocations in
// first-appearance order, each with its task definition, its compiled
// arguments and their offset in the binding's argument region; field
// projections of one call share a slot. Each tuple gets one record
// (tupleCalls) for its human calls: the tuple, its place in a filter
// cascade, one argument block with a region for every binding it may
// resolve, the slot values of the binding in flight and the count of
// outcomes still due. Per binding, the record evaluates all call
// arguments into a fresh region before submitting anything, submits one
// request per slot and collects the answers into the slot values that
// the compiled expressions read; the operator's continuation then judges
// the tuple, and a cascade asks its next conjunct from the same record.
// The record binds its Done callback once; only a binding with more than
// one site binds one per further site. Regions are never reused, because
// posted HITs keep their arguments. No name is resolved, no call printed
// and no argument encoded per tuple, and a cascade allocates the same
// per tuple whatever its number of conjuncts.
//
// Program.Start runs a program with one query's parameter values; Start
// compiles a plan and runs it as planned, so every query takes the same
// path. Parameters, call values and counters live in the query's run,
// never in the program, so concurrent queries share one. Labels
// (OpStats, RankStat.Op, JoinReduction.Join, Query.Plan and operator
// span names) are rendered when read, from the shared plan and the
// query's parameter values. A retired query keeps those, not the
// compiled steps; Query.ReleasePlan renders the labels of a query whose
// program no other query ran into text and lets its plan go.
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
// internal/core's plan cache, which stores a Program per normalized-SQL
// fingerprint (qlang.NormalizeQuery, whose one lexing pass also yields
// the literal values a hit runs the program with) and re-validates it
// against the live pre-filter cost decisions on every hit. See
// internal/core/plancache.go.
package exec
