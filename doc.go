// Package repro is a from-scratch Go reproduction of "Demonstration of
// Qurk: A Query Processor for Human Operators" (Marcus, Wu, Karger,
// Madden, Miller — SIGMOD 2011).
//
// Import the public API from repro/qurk; see README.md for a tour,
// DESIGN.md for the architecture, and EXPERIMENTS.md for the reproduced
// evaluation. The benchmarks in bench_test.go regenerate every
// experiment table (go test -bench=. -benchmem).
//
// Queries run through a context-first streaming API in the style of
// database/sql: Engine.Query(ctx, sql, ...QueryOption) returns a Rows
// cursor fed incrementally by the executor, per-query options override
// engine defaults (budget cap, virtual-time deadline, task policies,
// priority, adaptive joins), context cancellation propagates through
// the executor and task manager to the marketplace (open HITs expired,
// unspent budget refunded), and terminal errors are typed
// (ErrBudgetExhausted, ErrCanceled, ErrDeadline, *ParseError). Query
// is the one query entry point; see README.md § "Querying" for the
// qurk/api.txt surface pin. TestEngineClaims (internal/core) proves the
// engine's A/B claims — sharing, routing, inference, tracing, the plan
// cache, pre-filtering, warm starts, sorts and streaming — through it.
//
// ORDER BY over a human ranking task runs through the ranking
// subsystem (internal/rank): batched S-way comparison HITs, per-item
// rating HITs, or a cost-chosen hybrid that rates everything and
// comparison-refines only rating-ambiguous windows, with LIMIT pushed
// into the sort (top-k tournament). Sorting is a pipeline barrier:
// no row can stream out of a Rank (or OrderBy) operator before the
// last input tuple has been rated or compared, because any unseen
// tuple could belong first — so first-row latency for sorted queries
// is bounded below by the slowest sort-key HIT. Once the order is
// final the operator streams rows out through the Rows cursor
// immediately, releasing each buffered tuple as it is emitted; only
// the barrier, not the emission, is inherent. README.md § "Human-
// powered sorts" documents the strategies, the Compare:/GroupSize:
// task syntax, and a worked cost example.
//
// Everything the engine learns from the crowd — Task Cache entries,
// per-join-side selectivity and latency observations, Task Model
// training examples, worker reputations — can persist across engine
// restarts through the durable knowledge store (internal/store): an
// embedded, append-only, CRC-framed WAL with snapshot compaction and
// corruption-tolerant replay. Set Config.StorePath (or the -store flag
// on cmd/qurk) and a fresh engine warm-starts from
// every previous run's paid-for answers; README.md § "Durable knowledge
// store" documents the record kinds, compaction policy and crash-safety
// guarantees.
package repro
