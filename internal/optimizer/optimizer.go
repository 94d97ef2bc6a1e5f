// Package optimizer implements Qurk's Query Optimizer (paper §2): the
// optimization function accounts for monetary cost, the number of
// turkers to assign to each HIT, and overall query performance, and —
// because "query selectivities for HIT-based operators are not known a
// priori" — it adapts during execution using the Statistics Manager's
// estimates.
package optimizer

import (
	"math"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/taskmgr"
)

// MajorityProb returns the probability that a majority of n independent
// workers with per-answer accuracy p produce the correct answer (ties
// count as incorrect, matching stats.MajorityBool).
func MajorityProb(p float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	total := 0.0
	for k := n/2 + 1; k <= n; k++ {
		total += binomial(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
	}
	return total
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	// Multiplicative formula keeps this exact for dashboard-scale n.
	res := 1.0
	for i := 1; i <= k; i++ {
		res = res * float64(n-k+i) / float64(i)
	}
	return res
}

// ChooseAssignments returns the smallest odd assignment count whose
// majority vote reaches target confidence given per-worker accuracy p,
// capped at maxN (the paper's "number of turkers to assign to each HIT").
func ChooseAssignments(p, target float64, maxN int) int {
	if maxN < 1 {
		maxN = 1
	}
	if p >= target {
		return 1
	}
	if p <= 0.5 {
		return maxN // redundancy cannot fix a coin-flip worker
	}
	for n := 3; n <= maxN; n += 2 {
		if MajorityProb(p, n) >= target {
			return n
		}
	}
	return maxN
}

// ChooseBatchSize picks the largest batch whose predicted per-question
// accuracy stays above minAccuracy, given base worker accuracy and the
// crowd's per-extra-question decay (mirrors crowd.Config.BatchPenalty).
func ChooseBatchSize(baseAccuracy, batchPenalty, minAccuracy float64, maxBatch int) int {
	if maxBatch < 1 {
		maxBatch = 1
	}
	best := 1
	for b := 1; b <= maxBatch; b++ {
		m := 1 - batchPenalty*float64(b-1)
		if m < 0.55 {
			m = 0.55
		}
		if baseAccuracy*m >= minAccuracy {
			best = b
		}
	}
	return best
}

// FilterCost estimates the money to run one boolean task over n tuples
// under a policy (questions / batch, rounded up, × price × assignments).
// The policy is clamped the way taskmgr clamps before use, so a
// zero-valued Policy{} costs as the minimal one instead of dividing by
// zero.
func FilterCost(n int, pol taskmgr.Policy) budget.Cents {
	if n <= 0 {
		return 0
	}
	pol = pol.Clamped()
	hits := (n + pol.BatchSize - 1) / pol.BatchSize
	return budget.Cents(int64(hits) * pol.PriceCents * int64(pol.Assignments))
}

// JoinCost estimates the two-column join cost for an l×r cross product
// with the given block shape.
func JoinCost(l, r, blockL, blockR int, pol taskmgr.Policy) budget.Cents {
	if l <= 0 || r <= 0 {
		return 0
	}
	pol = pol.Clamped()
	if blockL < 1 {
		blockL = 1
	}
	if blockR < 1 {
		blockR = 1
	}
	blocks := ((l + blockL - 1) / blockL) * ((r + blockR - 1) / blockR)
	return budget.Cents(int64(blocks) * pol.PriceCents * int64(pol.Assignments))
}

// JoinCoster prices an l×r human-join cross product under a policy; the
// grid and pairwise interfaces provide the two implementations, so the
// same pre-filter decision logic covers both.
type JoinCoster func(l, r int, pol taskmgr.Policy) budget.Cents

// GridJoinCoster prices the two-column grid interface (Figure 3): one
// HIT per blockL×blockR block pair.
func GridJoinCoster(blockL, blockR int) JoinCoster {
	return func(l, r int, pol taskmgr.Policy) budget.Cents {
		return JoinCost(l, r, blockL, blockR, pol)
	}
}

// PairwiseJoinCost prices the one-question-per-pair baseline interface
// (exec.Config.JoinPairwise): l×r boolean questions, batched under the
// task policy like any other filter-shaped workload. Per pair the cost
// is price × assignments / batch — typically far steeper than the
// grid's per-pair share, which is why pre-filtering pays off even
// sooner for pairwise joins.
func PairwiseJoinCost(l, r int, pol taskmgr.Policy) budget.Cents {
	if l <= 0 || r <= 0 {
		return 0
	}
	return FilterCost(l*r, pol)
}

// PairwiseJoinCoster adapts PairwiseJoinCost to the JoinCoster hook.
func PairwiseJoinCoster() JoinCoster { return PairwiseJoinCost }

// PreFilterPlan decides whether running a cheap feature filter over both
// join inputs (selectivity σ each side) pays for itself by shrinking the
// cross product (the dashboard's "filtering-based reduction in
// cross-product size").
type PreFilterPlan struct {
	UsePreFilter  bool
	CostWithout   budget.Cents
	CostWith      budget.Cents
	ExpectedLeft  int
	ExpectedRight int
}

// DecidePreFilter compares join-only cost against filter-both-sides-
// then-join cost for the two-column grid interface.
func DecidePreFilter(l, r int, selL, selR float64, blockL, blockR int,
	filterPol, joinPol taskmgr.Policy) PreFilterPlan {
	return DecidePreFilterWith(GridJoinCoster(blockL, blockR), l, r, selL, selR, filterPol, joinPol)
}

// DecidePreFilterWith is DecidePreFilter under an arbitrary join cost
// model — the per-pair term that makes pairwise joins (and any future
// interface) eligible for cost-based pre-filtering.
func DecidePreFilterWith(joinCost JoinCoster, l, r int, selL, selR float64,
	filterPol, joinPol taskmgr.Policy) PreFilterPlan {
	without := joinCost(l, r, joinPol)
	fl := int(math.Ceil(float64(l) * selL))
	fr := int(math.Ceil(float64(r) * selR))
	with := FilterCost(l, filterPol) + FilterCost(r, filterPol) +
		joinCost(fl, fr, joinPol)
	return PreFilterPlan{
		UsePreFilter:  with < without,
		CostWithout:   without,
		CostWith:      with,
		ExpectedLeft:  fl,
		ExpectedRight: fr,
	}
}

// PreFilterChoice is the four-way pre-filter decision: which join
// inputs (if any) to wrap, with the baseline and chosen-plan costs.
type PreFilterChoice struct {
	Left, Right bool
	CostNone    budget.Cents
	CostBest    budget.Cents
}

// ChoosePreFilterWith prices all four pre-filter plans — none, left
// only, right only, both — with per-side selectivities under the join
// cost model joinCost (see JoinCoster) and picks the cheapest. This is
// what per-side estimates buy over DecidePreFilter's both-or-nothing
// model: a side the filter keeps whole (selectivity near 1) stops
// paying for its filter stage while the decimated side still shrinks
// the cross product. Ties prefer fewer filter stages.
func ChoosePreFilterWith(joinCost JoinCoster, l, r int, selL, selR float64,
	filterPol, joinPol taskmgr.Policy) PreFilterChoice {
	fl := int(math.Ceil(float64(l) * selL))
	fr := int(math.Ceil(float64(r) * selR))
	filterL, filterR := FilterCost(l, filterPol), FilterCost(r, filterPol)
	c := PreFilterChoice{CostNone: joinCost(l, r, joinPol)}
	c.CostBest = c.CostNone
	consider := func(left, right bool, cost budget.Cents) {
		if cost < c.CostBest {
			c.Left, c.Right, c.CostBest = left, right, cost
		}
	}
	consider(true, false, filterL+joinCost(fl, r, joinPol))
	consider(false, true, filterR+joinCost(l, fr, joinPol))
	consider(true, true, filterL+filterR+joinCost(fl, fr, joinPol))
	return c
}

// DecidePreFilterSide costs filtering just one join input, with the
// other side's cardinality held fixed — the executor's mid-query
// re-check, applied to the tuples whose filter question has not been
// submitted (and is not already answered by the cache) yet.
func DecidePreFilterSide(n, other int, sel float64, blockL, blockR int,
	filterPol, joinPol taskmgr.Policy) PreFilterPlan {
	return DecidePreFilterSideWith(GridJoinCoster(blockL, blockR), n, other, sel, filterPol, joinPol)
}

// DecidePreFilterSideWith is DecidePreFilterSide under an arbitrary
// join cost model (see JoinCoster).
func DecidePreFilterSideWith(joinCost JoinCoster, n, other int, sel float64,
	filterPol, joinPol taskmgr.Policy) PreFilterPlan {
	without := joinCost(n, other, joinPol)
	fn := int(math.Ceil(float64(n) * sel))
	with := FilterCost(n, filterPol) + joinCost(fn, other, joinPol)
	return PreFilterPlan{
		UsePreFilter: with < without,
		CostWithout:  without,
		CostWith:     with,
		ExpectedLeft: fn,
	}
}

// Optimizer adapts task policies and filter orderings from live
// statistics.
type Optimizer struct {
	Mgr *taskmgr.Manager
	// TargetConfidence for majority votes (default 0.9).
	TargetConfidence float64
	// WorkerAccuracy is the assumed base accuracy before statistics
	// accumulate (default 0.85).
	WorkerAccuracy float64
	// BatchPenalty mirrors the crowd's accuracy decay (default 0.015).
	BatchPenalty float64
	// MinAccuracy bounds batch growth (default 0.78).
	MinAccuracy float64
	// MaxAssignments and MaxBatch cap the knobs.
	MaxAssignments, MaxBatch int
	// MinPreFilterTrials is how many live selectivity observations a
	// join's feature filter needs before the mid-query re-check may
	// overturn the plan-time pre-filter decision (default 10).
	MinPreFilterTrials int
}

// New returns an optimizer with documented defaults bound to mgr.
func New(mgr *taskmgr.Manager) *Optimizer {
	return &Optimizer{
		Mgr:                mgr,
		TargetConfidence:   0.9,
		WorkerAccuracy:     0.85,
		BatchPenalty:       0.015,
		MinAccuracy:        0.78,
		MaxAssignments:     9,
		MaxBatch:           10,
		MinPreFilterTrials: 10,
	}
}

// TunePolicies derives and installs a policy for every task in the
// script: assignments from the redundancy model, batch size from the
// accuracy-decay model.
func (o *Optimizer) TunePolicies(script *qlang.Script) {
	for _, def := range script.Tasks {
		pol := o.PolicyFor(def)
		o.Mgr.SetPolicy(def.Name, pol)
	}
}

// PolicyFor computes the tuned policy for one task without installing it.
func (o *Optimizer) PolicyFor(def *qlang.TaskDef) taskmgr.Policy {
	pol := taskmgr.DefaultPolicy()
	pol.Assignments = ChooseAssignments(o.WorkerAccuracy, o.TargetConfidence, o.MaxAssignments)
	switch def.Type {
	case qlang.TaskFilter:
		pol.BatchSize = ChooseBatchSize(o.WorkerAccuracy, o.BatchPenalty, o.MinAccuracy, o.MaxBatch)
	case qlang.TaskRating:
		pol.BatchSize = ChooseBatchSize(o.WorkerAccuracy, o.BatchPenalty, o.MinAccuracy, o.MaxBatch)
	case qlang.TaskQuestion, qlang.TaskGenerative:
		// Free-text work is error-prone when batched; keep it small.
		pol.BatchSize = 1
	}
	return pol
}

// FilterOrder returns an exec.Config hook that re-orders a filter's
// human conjuncts by ascending cost-to-survive: predicates that are
// cheap and drop many tuples run first, so later (expensive) predicates
// see fewer tuples. Ordering uses live selectivity estimates, so it
// adapts as HIT results arrive — the paper's "adaptive approach".
func (o *Optimizer) FilterOrder(script *qlang.Script) func([]qlang.Expr) []int {
	return func(conjuncts []qlang.Expr) []int {
		type ranked struct {
			idx  int
			rank float64
		}
		rs := make([]ranked, len(conjuncts))
		for i, c := range conjuncts {
			sel, cost := o.conjunctEstimates(c, script)
			// Classic predicate ordering: ascending cost/(1-sel).
			drop := 1 - sel
			if drop < 0.01 {
				drop = 0.01
			}
			rs[i] = ranked{idx: i, rank: cost / drop}
		}
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].rank < rs[b].rank })
		order := make([]int, len(rs))
		for i, r := range rs {
			order[i] = r.idx
		}
		return order
	}
}

// conjunctEstimates aggregates selectivity and per-tuple cost for the
// tasks inside one conjunct.
func (o *Optimizer) conjunctEstimates(c qlang.Expr, script *qlang.Script) (sel, costCents float64) {
	sel, costCents = 1.0, 0.0
	for _, call := range exec.CollectCalls(c, script) {
		st := o.Mgr.StatsFor(strings.ToLower(call.Name))
		def, _ := script.Task(call.Name)
		pol := taskmgr.DefaultPolicy()
		if def != nil {
			pol = o.Mgr.PolicyFor(def)
		}
		// Clamp like taskmgr does before dividing: a zero-valued policy
		// must not yield ±Inf ranks that scramble predicate ordering.
		pol = pol.Clamped()
		perTuple := float64(pol.PriceCents) * float64(pol.Assignments) / float64(pol.BatchSize)
		costCents += perTuple
		sel *= st.Selectivity
	}
	return sel, costCents
}

// EstimateRemaining projects the money needed to finish a workload of n
// more applications of a task under its current policy — the dashboard's
// "estimates for total query cost".
func (o *Optimizer) EstimateRemaining(def *qlang.TaskDef, n int) budget.Cents {
	return FilterCost(n, o.Mgr.PolicyFor(def))
}

// preFilterPolicy is the policy a join's feature filter runs under:
// the task's tuned policy with redundancy forced to one. A pre-filter
// is an approximation the join predicate re-checks anyway (POSSIBLY
// semantics), so majority voting is not worth paying for.
func (o *Optimizer) preFilterPolicy(filter *qlang.TaskDef) taskmgr.Policy {
	pol := o.Mgr.PolicyFor(filter)
	pol.Assignments = 1
	return pol
}

func normBlock(b int) int {
	if b <= 0 {
		return 5 // exec.Config's default grid edge (Figure 3)
	}
	return b
}

// PreFilterDecider returns the planner hook for plan.ApplyPreFilters
// priced for the two-column grid interface; see PreFilterDeciderFor.
func (o *Optimizer) PreFilterDecider(blockL, blockR int) plan.PreFilterDecider {
	return o.PreFilterDeciderFor(exec.Config{JoinLeftBlock: blockL, JoinRightBlock: blockR})
}

// PreFilterDeciderFor returns the planner hook for plan.ApplyPreFilters:
// it prices the join-only baseline against filtering the left input,
// the right input, or both (ChoosePreFilterWith), using the Statistics
// Manager's per-side selectivity estimates for the filter task. The
// join cost model follows the executor config — the blockL×blockR grid
// normally, the per-pair term when cfg.JoinPairwise runs the
// one-question-per-pair baseline interface.
//
// Until any side-tagged observation exists (live or replayed from the
// knowledge store) the estimates are one shared prior that cannot tell
// the sides apart, so the decider falls back to the conservative
// both-sides-or-nothing model (DecidePreFilter) and lets the executor's
// per-stage re-check drop an unprofitable side once evidence arrives.
func (o *Optimizer) PreFilterDeciderFor(cfg exec.Config) plan.PreFilterDecider {
	coster := o.joinCosterFor(cfg, true)
	return func(join, filter *qlang.TaskDef, l, r int) plan.PreFilterDecision {
		fpol := o.preFilterPolicy(filter)
		jpol := o.Mgr.PolicyFor(join)
		if !o.Mgr.HasSideEvidence(filter.Name) {
			sel := o.Mgr.StatsFor(filter.Name).Selectivity
			if p := DecidePreFilterWith(coster, l, r, sel, sel, fpol, jpol); p.UsePreFilter {
				return plan.PreFilterDecision{Left: true, Right: true}
			}
			return plan.PreFilterDecision{}
		}
		selL, _ := o.Mgr.SideSelectivity(filter.Name, taskmgr.SideLeft)
		selR, _ := o.Mgr.SideSelectivity(filter.Name, taskmgr.SideRight)
		c := ChoosePreFilterWith(coster, l, r, selL, selR, fpol, jpol)
		return plan.PreFilterDecision{Left: c.Left, Right: c.Right}
	}
}

// joinCosterFor picks the join cost model matching the executor config.
// leftFirst orients the grid blocks: the plan-time decider always costs
// (left, right) while the keep-hook costs (this side, other side).
func (o *Optimizer) joinCosterFor(cfg exec.Config, leftFirst bool) JoinCoster {
	if cfg.JoinPairwise {
		return PairwiseJoinCoster()
	}
	blockL, blockR := normBlock(cfg.JoinLeftBlock), normBlock(cfg.JoinRightBlock)
	if leftFirst {
		return GridJoinCoster(blockL, blockR)
	}
	return GridJoinCoster(blockR, blockL)
}

// PreFilterKeep returns the executor's mid-query re-check hook priced
// for the two-column grid interface; see PreFilterKeepFor.
func (o *Optimizer) PreFilterKeep(blockL, blockR int) func(pf *plan.PreFilter, remaining int) bool {
	return o.PreFilterKeepFor(exec.Config{JoinLeftBlock: blockL, JoinRightBlock: blockR})
}

// PreFilterKeepFor returns the executor's mid-query re-check hook:
// before each block of filter questions is submitted it re-prices
// filtering the still-unsubmitted (and uncached — the executor probes
// the task cache with a counter-free Contains probe) tuples against
// joining them unfiltered, with the selectivity the Statistics Manager
// has accumulated so far for this stage's own join side (falling back
// to the combined estimate while the side is unobserved). The join
// cost model follows the executor config (grid or pairwise). Until
// MinPreFilterTrials observations exist the plan-time decision stands.
func (o *Optimizer) PreFilterKeepFor(cfg exec.Config) func(pf *plan.PreFilter, remaining int) bool {
	leftCoster := o.joinCosterFor(cfg, true)
	rightCoster := o.joinCosterFor(cfg, false)
	return func(pf *plan.PreFilter, remaining int) bool {
		if remaining <= 0 {
			return true
		}
		side := taskmgr.SideRight
		if pf.Left {
			side = taskmgr.SideLeft
		}
		sel, trials := o.Mgr.SideSelectivity(pf.Task.Name, side)
		if trials < o.MinPreFilterTrials {
			return true
		}
		fpol := o.preFilterPolicy(pf.Task)
		jpol := o.Mgr.PolicyFor(pf.Join.HumanTask)
		var p PreFilterPlan
		if pf.Left {
			p = DecidePreFilterSideWith(leftCoster, remaining, plan.EstimateRows(pf.Join.Right), sel, fpol, jpol)
		} else {
			p = DecidePreFilterSideWith(rightCoster, remaining, plan.EstimateRows(pf.Join.Left), sel, fpol, jpol)
		}
		return p.UsePreFilter
	}
}
