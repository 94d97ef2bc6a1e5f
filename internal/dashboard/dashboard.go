// Package dashboard implements the Query Status Dashboard of Figure 2:
// a window into the system internals showing budget, total-cost
// estimates, per-operator progress, and the benefit gained from the two
// optimizations the demo highlights — caching of previously executed
// UDFs and classifiers in place of humans — plus the Task Completion
// Interface that lets a live audience answer HITs.
package dashboard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/mturk"
	"repro/internal/taskmgr"
)

// QueryInfo describes one (running, finished or canceled) query.
type QueryInfo struct {
	ID          int
	SQL         string
	PlanExplain string
	Ops         []exec.OpStats
	Done        bool
	// Canceled marks a query terminated by context / deadline / Close;
	// SunkCents is the money it consumed before its open HITs were
	// expired (posted cost minus expiry refunds).
	Canceled   bool
	SunkCents  budget.Cents
	Results    int
	ElapsedMin float64 // virtual minutes since submission
	Errors     int
}

// BudgetInfo is the money panel.
type BudgetInfo struct {
	Limit     budget.Cents
	Spent     budget.Cents
	Remaining budget.Cents
}

// Savings quantifies the dashboard optimizations: caching, classifier
// substitution, and the cross-product reduction of adaptive joins.
type Savings struct {
	// CacheSavedCents estimates money not spent thanks to cache hits.
	CacheSavedCents budget.Cents
	// ModelSavedCents estimates money not spent thanks to the task
	// models answering instead of humans.
	ModelSavedCents budget.Cents
	CacheHits       int64
	ModelAnswers    int64
	// JoinPairsAvoided counts cross-product pairs the pre-filter stages
	// of adaptive joins kept away from workers; JoinSavedCents prices
	// them at the join task's per-pair grid cost.
	JoinPairsAvoided int64
	JoinSavedCents   budget.Cents
	// SortCompareHITs / SortRateHITs count what the cost-chosen sort
	// strategies actually posted across queries; SortSavedCents prices
	// the comparison HITs the chosen strategies avoided against the
	// all-pairs compare baseline.
	SortCompareHITs int64
	SortRateHITs    int64
	SortSavedCents  budget.Cents
	// SharedHITs counts HITs co-batched across query scopes
	// (multi-tenant sharing), SharedItems the items inside them, and
	// SharedSavedCents prices the per-query partial-batch HITs sharing
	// avoided.
	SharedHITs       int64
	SharedItems      int64
	SharedSavedCents budget.Cents
}

// WarmstartInfo reports what the durable knowledge store replayed at
// engine start: paid-for answers and statistics evidence that this run
// did not have to buy again.
type WarmstartInfo struct {
	// Answers counts replayed per-assignment answers (across Entries
	// cache entries); Observations the replayed statistics evidence.
	Answers      int64
	Entries      int64
	Observations int64
	// SavedCents prices the replayed cache entries at each task's
	// current policy — what re-asking them would have cost.
	SavedCents budget.Cents
}

// PlanCacheStats reports the engine's normalized-SQL plan cache: queries
// whose shape (literals stripped) matched a cached template skip
// planning; entries invalidate when live statistics flip an optimizer
// decision the cached plan baked in.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	// SavedMs totals the measured planning time hits skipped.
	SavedMs float64
}

// BackendCount is one worker backend's share of the posted HITs.
type BackendCount struct {
	Name string
	HITs int64
}

// BackendsInfo summarizes per-task backend routing (zero when the
// engine runs on the plain simulated crowd without a router).
type BackendsInfo struct {
	// Counts lists HITs posted per backend, default backend first.
	Counts []BackendCount
	// SavedCents is what routing saved versus each task's policy price.
	SavedCents budget.Cents
}

// Snapshot is a point-in-time view of the whole system.
type Snapshot struct {
	NowMinutes float64
	Budget     BudgetInfo
	Market     mturk.Stats
	Tasks      []taskmgr.TaskStats
	Cache      cache.Stats
	Models     []model.Stats
	Queries    []QueryInfo
	Savings    Savings
	// Workers lists agreement-based reputations, suspects first
	// (capped by the snapshot builder).
	Workers []taskmgr.WorkerQuality
	// EstimatedRemainingCents prices the crowd work not yet posted:
	// each question waiting to fill a batch at its scoped policy's
	// price × assignments ÷ batch size, and each HIT waiting for
	// admission at its provisional cost. HITs in flight add nothing;
	// their cost is already in Budget.Spent.
	EstimatedRemainingCents budget.Cents
	// Warmstart is what the knowledge store replayed at engine start
	// (zero when no store is configured).
	Warmstart WarmstartInfo
	// PlanCache reports plan-cache activity.
	PlanCache PlanCacheStats
	// Backends reports worker-backend routing (zero without a router).
	Backends BackendsInfo
	// Inference reports answer-inference activity: which aggregator the
	// engine runs and what the adaptive redundancy loop bought — or,
	// more to the point, did not buy.
	Inference taskmgr.InferenceStats
}

// ComputeSavings derives the optimization-benefit panel from task stats:
// every cache hit or model answer avoided (price × assignments /
// batch) of human spend under that task's policy.
func ComputeSavings(tasks []taskmgr.TaskStats, policyFor func(task string) taskmgr.Policy) Savings {
	var s Savings
	for _, ts := range tasks {
		pol := policyFor(ts.Task)
		perQuestion := float64(pol.PriceCents) * float64(pol.Assignments) / float64(pol.BatchSize)
		s.CacheSavedCents += budget.Cents(float64(ts.CacheHits) * perQuestion)
		s.ModelSavedCents += budget.Cents(float64(ts.ModelAnswers) * perQuestion)
		s.CacheHits += ts.CacheHits
		s.ModelAnswers += ts.ModelAnswers
	}
	return s
}

// Render produces the text dashboard (the terminal twin of Figure 2).
func Render(s Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Qurk Query Status Dashboard (t=%.1f virtual min) ===\n", s.NowMinutes)

	fmt.Fprintf(&b, "\nBudget: spent %v", s.Budget.Spent)
	if s.Budget.Limit > 0 {
		fmt.Fprintf(&b, " of %v (remaining %v)", s.Budget.Limit, s.Budget.Remaining)
	} else {
		b.WriteString(" (no limit)")
	}
	fmt.Fprintf(&b, "; estimated remaining work %v\n", s.EstimatedRemainingCents)

	fmt.Fprintf(&b, "MTurk: %d HITs posted, %d assignments done, %d questions answered, %d from the audience\n",
		s.Market.HITsPosted, s.Market.AssignmentsCompleted, s.Market.QuestionsAnswered, s.Market.ExternalSubmissions)

	fmt.Fprintf(&b, "Optimizations: cache saved ~%v (%d hits, %d answers served); classifiers saved ~%v (%d answers)\n",
		s.Savings.CacheSavedCents, s.Savings.CacheHits, s.Cache.SavedQuestions,
		s.Savings.ModelSavedCents, s.Savings.ModelAnswers)
	if s.Savings.JoinPairsAvoided > 0 {
		fmt.Fprintf(&b, "Adaptive joins: avoided %d cross-product pairs (~%v of join HITs)\n",
			s.Savings.JoinPairsAvoided, s.Savings.JoinSavedCents)
	}
	if s.Savings.SortCompareHITs > 0 || s.Savings.SortRateHITs > 0 {
		fmt.Fprintf(&b, "Sort: %d comparison HITs vs %d rating HITs, ~%v saved\n",
			s.Savings.SortCompareHITs, s.Savings.SortRateHITs, s.Savings.SortSavedCents)
	}
	if s.Savings.SharedHITs > 0 {
		fmt.Fprintf(&b, "Multi-tenant sharing: %d HITs co-batched %d cross-query items (~%v saved)\n",
			s.Savings.SharedHITs, s.Savings.SharedItems, s.Savings.SharedSavedCents)
	}
	if len(s.Backends.Counts) > 0 {
		parts := make([]string, len(s.Backends.Counts))
		for i, bc := range s.Backends.Counts {
			parts[i] = fmt.Sprintf("%d %s", bc.HITs, bc.Name)
		}
		fmt.Fprintf(&b, "Backends: %s HITs, ~%v saved by routing\n",
			strings.Join(parts, " / "), s.Backends.SavedCents)
	}
	if s.Inference.AdaptiveHITs > 0 {
		avg := float64(s.Inference.AssignmentsUsed) / float64(s.Inference.AdaptiveHITs)
		was := float64(s.Inference.AssignmentsCap) / float64(s.Inference.AdaptiveHITs)
		fmt.Fprintf(&b, "Inference: avg %.1f assignments/HIT (was %.1f), ~%v saved, %d extensions",
			avg, was, s.Inference.SavedCents, s.Inference.Extensions)
		if s.Inference.ExtendFailures > 0 {
			fmt.Fprintf(&b, ", %d extend failures", s.Inference.ExtendFailures)
		}
		b.WriteString("\n")
	} else if s.Inference.Method != "" && s.Inference.Method != "majority" {
		fmt.Fprintf(&b, "Inference: %s enabled, no adaptive HITs finalized yet\n", s.Inference.Method)
	}
	if s.PlanCache.Hits > 0 || s.PlanCache.Invalidations > 0 {
		fmt.Fprintf(&b, "Plan cache: %d hits, %d invalidations (~%.1f ms planning saved)\n",
			s.PlanCache.Hits, s.PlanCache.Invalidations, s.PlanCache.SavedMs)
	}
	if s.Warmstart.Answers > 0 || s.Warmstart.Observations > 0 {
		fmt.Fprintf(&b, "Warm start: %d answers, %d observations replayed (~%v saved)\n",
			s.Warmstart.Answers, s.Warmstart.Observations, s.Warmstart.SavedCents)
	}

	if len(s.Tasks) > 0 {
		b.WriteString("\nTasks:\n")
		fmt.Fprintf(&b, "  %-16s %8s %6s %6s %6s %6s %9s %7s %7s\n",
			"task", "questions", "HITs", "cache", "model", "spent", "selectvty", "agree", "lat(m)")
		for _, t := range s.Tasks {
			fmt.Fprintf(&b, "  %-16s %8d %6d %6d %6d %6s %6.2f/%-2d %7.2f %7.1f\n",
				t.Task, t.QuestionsAsked, t.HITsPosted, t.CacheHits, t.ModelAnswers,
				t.SpentCents, t.Selectivity, t.SelTrials, t.MeanAgreement, t.MeanLatencyMin)
		}
	}

	if len(s.Workers) > 0 {
		b.WriteString("\nWorker quality (majority agreement, suspects first):\n")
		for _, w := range s.Workers {
			fmt.Fprintf(&b, "  %-16s %5.2f over %d votes\n", w.ID, w.Agreement, w.Votes)
		}
	}

	for _, q := range s.Queries {
		status := "running"
		switch {
		case q.Canceled:
			status = fmt.Sprintf("CANCELED, sunk %v", q.SunkCents)
		case q.Done:
			status = "done"
		}
		fmt.Fprintf(&b, "\nQuery %d [%s, %.1f min, %d results, %d errors]\n  %s\n",
			q.ID, status, q.ElapsedMin, q.Results, q.Errors, strings.TrimSpace(q.SQL))
		for _, line := range strings.Split(strings.TrimRight(q.PlanExplain, "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
		for _, op := range q.Ops {
			mark := " "
			if op.Done {
				mark = "✓"
			}
			fmt.Fprintf(&b, "    %s %-40s in=%-6d out=%-6d\n", mark, op.Label, op.In, op.Out)
		}
	}
	return b.String()
}

// SortTasksBySpend orders the task panel by money spent, descending, for
// the "where is my budget going" view.
func SortTasksBySpend(tasks []taskmgr.TaskStats) {
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].SpentCents > tasks[j].SpentCents })
}
