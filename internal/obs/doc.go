// Package obs is the engine's observability layer: a labeled metrics
// registry, which is always on, virtual-clock span traces, which are
// opt-in, and the renderers (EXPLAIN ANALYZE, Prometheus text, JSON)
// the rest of the system exposes them through.
//
// # Metrics
//
// Each event is counted once, where it happens, on a Ref its owner
// resolves at the series' first event: every later event is one atomic
// operation on the instrument, with no key built and no lock taken.
//
// # Spans
//
// A trace is a tree of Spans following the life of one query:
//
//	query                     one SELECT, root of the tree
//	└─ plan                   planning, annotated cache hit/miss
//	└─ operator ...           one per executor operator, nested like the plan
//	└─ batch                  one cut batch: cut → admission queue → post
//	   └─ hit                 one posted HIT: post → assignments → finalize
//	      ├─ assignment ...   one per received assignment
//	      └─ extend ...       one per adaptive extension
//
// Span IDs come from a single atomic counter and timestamps from the
// discrete-event virtual clock, never from wall time or randomness, so
// the same seed yields byte-identical traces. Creating or ending a span
// never schedules clock events — tracing cannot perturb a simulation,
// which is what keeps rows, spend and the journal identical with
// tracing on or off (TestEngineClaims in internal/core). A nil *Tracer
// mints nil *Spans, and every Span method on a nil receiver is a no-op
// with zero allocations; enabled, spans come from a sync.Pool (recycled
// via Tracer.Release once a tree is fully ended and owned).
//
// # Surfaces
//
//   - ExplainAnalyze renders a finished tree as the per-operator table
//     behind Rows.Explain() and the REPL's EXPLAIN ANALYZE.
//   - Registry.WritePrometheus serves text-format /metrics.
//   - MarshalTree serves JSON /trace/{id}.
package obs
