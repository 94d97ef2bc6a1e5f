// Package qurk is the public API of this Qurk reproduction: a relational
// query processor whose operators are implemented by human workers on a
// (simulated) Mechanical Turk marketplace, after Marcus, Wu, Karger,
// Madden and Miller, "Demonstration of Qurk: A Query Processor for Human
// Operators", SIGMOD 2011.
//
// A minimal session, in the context-first style of database/sql:
//
//	ds := qurk.Companies(20, 1) // synthetic data + ground truth
//	eng, err := qurk.New(qurk.Config{Oracle: ds.Oracle})
//	if err != nil { ... }
//	defer eng.Close()
//	for _, t := range ds.Tables {
//		_ = eng.Register(t)
//	}
//	_ = eng.Define(`
//	TASK findCEO(String companyName)
//	RETURNS (String CEO, String Phone):
//	  TaskType: Question
//	  Text: "Find the CEO and the CEO's phone number for the company %s", companyName
//	  Response: Form(("CEO", String), ("Phone", String))
//	`)
//	rows, err := eng.Query(ctx, `
//	SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone
//	FROM companies`)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Tuple()) // first rows arrive while later HITs run
//	}
//	if err := rows.Err(); err != nil { ... } // typed: ErrBudgetExhausted, ...
//
// Queries stream: Rows delivers tuples as the executor produces them.
// Canceling ctx (or rows.Close, or a WithDeadline virtual deadline)
// cancels the query end to end — open HITs are expired at the simulated
// marketplace and unspent budget is released. Per-query options
// (WithBudget, WithPolicy, WithPriority, WithAdaptiveJoins) override
// the engine defaults for one query.
//
// # Multi-tenant serving
//
// Concurrent queries over the same tasks can opt into cross-query HIT
// sharing with WithSharedBatching (or a task-level "Share: Yes"
// property): partial batches from different queries with matching
// effective posting policies fill one HIT together, and the HIT cost
// is split across the queries by item count — integer cents with
// deterministic largest-remainder rounding, so per-query budgets,
// refunds and dashboard spend stay exact. Canceling one participant
// detaches its items and refunds its share of the unconsumed cost; the
// HIT keeps running for the others. Config.MaxInflightHITs adds an
// admission gate: excess HITs of every kind (batches, grouped filters,
// join grids and comparisons) queue and post in priority order
// (WithPriority), then by weighted fair share of admitted HITs
// (WithWeight), so a burst of queries degrades gracefully.
//
// The engine runs HITs against a configurable synthetic crowd under a
// virtual clock, so latency is reported in simulated minutes while
// programs finish in milliseconds. See DESIGN.md for the architecture
// and EXPERIMENTS.md for the reproduced evaluation.
//
// # API surface
//
// Engine.Query is the one way to run a query: it takes a context and
// per-query options and returns a streaming cursor with typed errors
// (Engine.RunScript runs a whole script of them). The exported surface
// of this package is pinned by qurk/api.txt (enforced in CI): changing
// it requires regenerating that file and noting the change in
// CHANGES.md.
package qurk

import (
	"net/http"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// Re-exported core types; see the respective internal packages for the
// full method sets.
type (
	// Engine is a running Qurk instance (internal/core.Engine).
	Engine = core.Engine
	// Config parameterizes an engine.
	Config = core.Config
	// QueryHandle tracks a submitted query.
	QueryHandle = core.QueryHandle
	// Rows is the streaming result cursor returned by Engine.Query.
	Rows = core.Rows
	// QueryOption customizes one Query call (WithBudget, WithDeadline,
	// WithPolicy, WithAdaptiveJoins, WithPriority, WithSharedBatching,
	// WithWeight).
	QueryOption = core.QueryOption
	// ParseError is a query-text error with line/column position.
	ParseError = core.ParseError
	// CrowdConfig tunes the simulated worker population.
	CrowdConfig = crowd.Config
	// Oracle supplies ground truth to the simulated crowd.
	Oracle = crowd.Oracle
	// OracleFunc adapts a function to Oracle.
	OracleFunc = crowd.OracleFunc
	// ExecConfig tunes the executor (join interface, batching mode...).
	ExecConfig = exec.Config
	// Policy tunes per-task HIT generation.
	Policy = taskmgr.Policy
	// Cents is money, in integer US cents.
	Cents = budget.Cents
	// Table is an in-memory relation.
	Table = relation.Table
	// Tuple is one row.
	Tuple = relation.Tuple
	// Value is a dynamically typed datum.
	Value = relation.Value
	// Dataset bundles synthetic tables with their ground-truth oracle.
	Dataset = workload.Dataset
	// Snapshot is the dashboard view of the system.
	Snapshot = dashboard.Snapshot
)

// Typed query errors; returned wrapped from Rows.Err,
// test with errors.Is.
var (
	// ErrCanceled: the query's context was canceled, its Rows closed
	// early, or the engine shut down under it.
	ErrCanceled = core.ErrCanceled
	// ErrDeadline: the query's WithDeadline virtual-time deadline (or
	// its context deadline) expired first.
	ErrDeadline = core.ErrDeadline
	// ErrBudgetExhausted: a budget — engine-wide or per-query — could
	// not cover a HIT.
	ErrBudgetExhausted = core.ErrBudgetExhausted
)

// Per-query options for Engine.Query; see the core package for details.
var (
	// WithBudget caps one query's total spend (ErrBudgetExhausted past it).
	WithBudget = core.WithBudget
	// WithDeadline cancels the query after d of virtual time (ErrDeadline).
	WithDeadline = core.WithDeadline
	// WithPolicy overrides one task's policy for this query only.
	WithPolicy = core.WithPolicy
	// WithAdaptiveJoins toggles cost-based join pre-filtering per query.
	WithAdaptiveJoins = core.WithAdaptiveJoins
	// WithPriority orders this query's HITs relative to others.
	WithPriority = core.WithPriority
	// WithSharedBatching lets this query's items co-fill HITs with
	// other sharing queries, cost split by item count.
	WithSharedBatching = core.WithSharedBatching
	// WithWeight sets the query's fair-share weight under an admission
	// gate (Config.MaxInflightHITs).
	WithWeight = core.WithWeight
	// WithLabel tags the query's scope so its cost metrics get a
	// per-scope series.
	WithLabel = core.WithLabel
)

// New starts an engine. Callers must Close it.
func New(cfg Config) (*Engine, error) { return core.New(cfg) }

// DefaultPolicy is the engine-wide starting task policy.
func DefaultPolicy() Policy { return taskmgr.DefaultPolicy() }

// RenderDashboard renders a snapshot as the text dashboard.
func RenderDashboard(s Snapshot) string { return dashboard.Render(s) }

// DashboardHandler serves the HTTP dashboard and the audience
// task-completion interface for an engine.
func DashboardHandler(e *Engine) http.Handler { return dashboard.NewHandler(e) }

// Synthetic workloads (see internal/workload for parameters).
var (
	// Companies generates the Query 1 workload.
	Companies = workload.Companies
	// Celebrities generates the Query 2 workload.
	Celebrities = workload.Celebrities
	// Photos generates a boolean-filter workload.
	Photos = workload.Photos
	// RankItems generates a sort workload with latent scores.
	RankItems = workload.RankItems
	// Reviews generates a sentiment workload.
	Reviews = workload.Reviews
	// CombineOracles merges ground-truth oracles.
	CombineOracles = workload.Combine
)
