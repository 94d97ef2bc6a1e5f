package optimizer

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/crowd"
	"repro/internal/model"
	"repro/internal/mturk"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

func TestMajorityProb(t *testing.T) {
	if got := MajorityProb(1.0, 3); math.Abs(got-1) > 1e-9 {
		t.Errorf("p=1: %v", got)
	}
	if got := MajorityProb(0.5, 3); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p=0.5 n=3: %v", got) // C(3,2)*.125 + C(3,3)*.125 = 0.5
	}
	// p=0.9, n=3: 3*0.81*0.1 + 0.729 = 0.972
	if got := MajorityProb(0.9, 3); math.Abs(got-0.972) > 1e-9 {
		t.Errorf("p=0.9 n=3: %v", got)
	}
	if got := MajorityProb(0.9, 0); got != 0 {
		t.Errorf("n=0: %v", got)
	}
}

// Property: for p>0.5, more (odd) assignments never hurt.
func TestMajorityProbMonotoneProperty(t *testing.T) {
	f := func(seed uint8) bool {
		p := 0.55 + float64(seed%40)/100
		prev := 0.0
		for n := 1; n <= 9; n += 2 {
			cur := MajorityProb(p, n)
			if cur+1e-12 < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestChooseAssignments(t *testing.T) {
	if got := ChooseAssignments(0.95, 0.9, 9); got != 1 {
		t.Errorf("already confident: %d", got)
	}
	if got := ChooseAssignments(0.85, 0.95, 9); got < 3 || got%2 == 0 {
		t.Errorf("needs odd redundancy: %d", got)
	}
	if got := ChooseAssignments(0.4, 0.9, 9); got != 9 {
		t.Errorf("hopeless worker should cap: %d", got)
	}
	// Higher target needs at least as many assignments.
	lo := ChooseAssignments(0.8, 0.85, 15)
	hi := ChooseAssignments(0.8, 0.99, 15)
	if hi < lo {
		t.Errorf("target monotonicity: %d < %d", hi, lo)
	}
}

func TestChooseBatchSize(t *testing.T) {
	if got := ChooseBatchSize(0.9, 0.015, 0.85, 10); got <= 1 {
		t.Errorf("mild penalty should allow batching: %d", got)
	}
	if got := ChooseBatchSize(0.8, 0.1, 0.79, 10); got != 1 {
		t.Errorf("steep penalty: %d", got) // b=2 drops accuracy to 0.72 < 0.79
	}
	if got := ChooseBatchSize(0.86, 0.015, 0.9, 10); got != 1 {
		t.Errorf("unreachable accuracy target: %d", got)
	}
}

func TestFilterAndJoinCost(t *testing.T) {
	pol := taskmgr.Policy{Assignments: 3, BatchSize: 5, PriceCents: 2}
	if got := FilterCost(10, pol); got != 12 { // 2 HITs × 2c × 3
		t.Errorf("filter cost = %v", got)
	}
	if got := FilterCost(11, pol); got != 18 { // 3 HITs
		t.Errorf("filter cost ceil = %v", got)
	}
	if got := FilterCost(0, pol); got != 0 {
		t.Errorf("empty = %v", got)
	}
	jp := taskmgr.Policy{Assignments: 2, PriceCents: 1}
	if got := JoinCost(10, 10, 5, 5, jp); got != 8 { // 4 blocks × 1c × 2
		t.Errorf("join cost = %v", got)
	}
	if got := JoinCost(0, 10, 5, 5, jp); got != 0 {
		t.Errorf("empty join = %v", got)
	}
}

func TestDecidePreFilter(t *testing.T) {
	filterPol := taskmgr.Policy{Assignments: 1, BatchSize: 10, PriceCents: 1}
	joinPol := taskmgr.Policy{Assignments: 3, PriceCents: 2}
	// Selective filters on a big cross product: pre-filtering wins.
	plan := DecidePreFilter(100, 100, 0.2, 0.2, 5, 5, filterPol, joinPol)
	if !plan.UsePreFilter {
		t.Fatalf("selective pre-filter should win: %+v", plan)
	}
	if plan.CostWith >= plan.CostWithout {
		t.Fatalf("costs inconsistent: %+v", plan)
	}
	// Non-selective filters on a tiny join: not worth it.
	plan2 := DecidePreFilter(5, 5, 0.95, 0.95, 5, 5, filterPol, joinPol)
	if plan2.UsePreFilter {
		t.Fatalf("useless pre-filter chosen: %+v", plan2)
	}
}

// TestCostZeroPolicy is the divide-by-zero regression: a zero-valued
// Policy{} must clamp like taskmgr's effective policy does, not panic
// or produce ±Inf costs.
func TestCostZeroPolicy(t *testing.T) {
	zero := taskmgr.Policy{}
	if got := FilterCost(10, zero); got != 10 { // 10 HITs × 1c × 1 assignment
		t.Errorf("FilterCost(10, Policy{}) = %v, want 10", got)
	}
	if got := JoinCost(10, 10, 5, 5, zero); got != 4 { // 4 blocks × 1c × 1
		t.Errorf("JoinCost(10, 10, Policy{}) = %v, want 4", got)
	}
	p := DecidePreFilter(50, 50, 0.2, 0.2, 5, 5, zero, zero)
	if p.CostWith <= 0 || p.CostWithout <= 0 {
		t.Errorf("DecidePreFilter with Policy{} = %+v", p)
	}
	ps := DecidePreFilterSide(50, 50, 0.2, 5, 5, zero, zero)
	if ps.CostWith <= 0 || ps.CostWithout <= 0 {
		t.Errorf("DecidePreFilterSide with Policy{} = %+v", ps)
	}
}

func TestDecidePreFilterSide(t *testing.T) {
	filterPol := taskmgr.Policy{Assignments: 1, BatchSize: 10, PriceCents: 1}
	joinPol := taskmgr.Policy{Assignments: 3, PriceCents: 2}
	// Selective filter over one big side: filtering it pays.
	p := DecidePreFilterSide(100, 100, 0.2, 5, 5, filterPol, joinPol)
	if !p.UsePreFilter || p.CostWith >= p.CostWithout {
		t.Fatalf("selective one-sided filter should win: %+v", p)
	}
	if p.ExpectedLeft != 20 {
		t.Fatalf("expected survivors = %d", p.ExpectedLeft)
	}
	// A filter that keeps nearly everything cannot pay.
	p2 := DecidePreFilterSide(100, 100, 0.97, 5, 5, filterPol, joinPol)
	if p2.UsePreFilter {
		t.Fatalf("non-selective filter chosen: %+v", p2)
	}
}

func newOptRig(t *testing.T) (*Optimizer, *taskmgr.Manager, *qlang.Script) {
	t.Helper()
	script, err := qlang.Parse(`
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo

TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Outdoors? %s", photo
  Response: YesNo

TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "CEO of %s", companyName
  Response: Form(("CEO", String), ("Phone", String))
`)
	if err != nil {
		t.Fatal(err)
	}
	clock := mturk.NewClock()
	pool := crowd.NewPool(crowd.Config{Seed: 1}, crowd.OracleFunc(
		func(task string, args []relation.Value) relation.Value { return relation.NewBool(true) }))
	market := mturk.NewMarketplace(clock, pool)
	mgr := taskmgr.New(market, cache.New(), model.NewRegistry(), budget.NewAccount(0))
	return New(mgr), mgr, script
}

func TestTunePolicies(t *testing.T) {
	o, mgr, script := newOptRig(t)
	o.TunePolicies(script)
	cat, _ := script.Task("isCat")
	pol := mgr.PolicyFor(cat)
	if pol.Assignments < 3 || pol.Assignments%2 == 0 {
		t.Errorf("filter assignments = %d", pol.Assignments)
	}
	if pol.BatchSize <= 1 {
		t.Errorf("filter batch = %d", pol.BatchSize)
	}
	ceo, _ := script.Task("findCEO")
	if mgr.PolicyFor(ceo).BatchSize != 1 {
		t.Error("free-text tasks must not batch")
	}
}

func TestFilterOrderPrefersSelectiveCheap(t *testing.T) {
	o, mgr, script := newOptRig(t)
	// Make isCat very selective (drops 90%) and isOutdoor barely
	// selective, same cost: isCat should run first.
	catDef, _ := script.Task("isCat")
	outDef, _ := script.Task("isOutdoor")
	_ = catDef
	_ = outDef
	seedSelectivity(mgr, script, "isCat", 0.1, 50)
	seedSelectivity(mgr, script, "isOutdoor", 0.9, 50)
	order := o.FilterOrder(script)([]qlang.Expr{
		mustCall(t, "isOutdoor"), mustCall(t, "isCat"),
	})
	if order[0] != 1 {
		t.Fatalf("order = %v; selective predicate should lead", order)
	}
	// Flip the selectivities: order should flip too (adaptivity).
	seedSelectivity(mgr, script, "isCat", 0.97, 2000)
	seedSelectivity(mgr, script, "isOutdoor", 0.05, 2000)
	order2 := o.FilterOrder(script)([]qlang.Expr{
		mustCall(t, "isOutdoor"), mustCall(t, "isCat"),
	})
	if order2[0] != 0 {
		t.Fatalf("order after flip = %v", order2)
	}
}

func mustCall(t *testing.T, task string) qlang.Expr {
	t.Helper()
	return &qlang.Call{Name: task, Args: []qlang.Expr{&qlang.ColumnRef{Name: "img"}}}
}

// seedSelectivity feeds synthetic observations into the manager's
// selectivity estimator via the cache+submit path being too slow for a
// unit test, so we use the public Submit path with a cache-primed
// instant outcome.
func seedSelectivity(mgr *taskmgr.Manager, script *qlang.Script, task string, sel float64, n int) {
	def, _ := script.Task(task)
	passes := int(sel * float64(n))
	for i := 0; i < n; i++ {
		args := []relation.Value{relation.NewImage(task + "-seed-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10)))}
		key := cache.NewKey(def.Name, args)
		mgr.Cache().Put(key, cache.EncodeAnswers([]relation.Value{relation.NewBool(i < passes)}))
		mgr.Submit(taskmgr.Request{Def: def, Args: args, Done: func(taskmgr.Outcome) {}})
	}
}

const preFilterJoinScript = `
TASK isPerson(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Does this photo show a person? %s", img
  Response: YesNo

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
  PreFilter: isPerson
`

func newPreFilterRig(t *testing.T) (*Optimizer, *taskmgr.Manager, *qlang.Script) {
	t.Helper()
	script, err := qlang.Parse(preFilterJoinScript)
	if err != nil {
		t.Fatal(err)
	}
	clock := mturk.NewClock()
	pool := crowd.NewPool(crowd.Config{Seed: 1}, crowd.OracleFunc(
		func(task string, args []relation.Value) relation.Value { return relation.NewBool(true) }))
	market := mturk.NewMarketplace(clock, pool)
	mgr := taskmgr.New(market, cache.New(), model.NewRegistry(), budget.NewAccount(0))
	return New(mgr), mgr, script
}

// TestPreFilterDeciderAdapts drives the planner hook with live
// selectivity: a selective feature filter fires the rewrite, a
// non-selective one declines it.
func TestPreFilterDeciderAdapts(t *testing.T) {
	o, mgr, script := newPreFilterRig(t)
	join, _ := script.Task("samePerson")
	filter, _ := script.Task("isPerson")
	decide := o.PreFilterDecider(5, 5)

	seedSelectivity(mgr, script, "isPerson", 0.15, 60)
	d := decide(join, filter, 100, 100)
	if !d.Left && !d.Right {
		t.Fatalf("selective filter (σ≈0.15) should fire: %+v", d)
	}

	seedSelectivity(mgr, script, "isPerson", 0.99, 4000)
	d2 := decide(join, filter, 100, 100)
	if d2.Left || d2.Right {
		t.Fatalf("non-selective filter (σ≈0.99) should decline: %+v", d2)
	}
}

// TestPreFilterKeep covers the executor's mid-query re-check: it trusts
// the plan until enough trials accumulate, then re-prices the remaining
// uncached tuples.
func TestPreFilterKeep(t *testing.T) {
	o, mgr, script := newPreFilterRig(t)
	joinDef, _ := script.Task("samePerson")
	filterDef, _ := script.Task("isPerson")
	left := relation.NewTable("l", relation.MustSchema(relation.Column{Name: "image", Kind: relation.KindImage}))
	right := relation.NewTable("r", relation.MustSchema(relation.Column{Name: "image", Kind: relation.KindImage}))
	for i := 0; i < 100; i++ {
		_ = right.InsertValues(relation.NewImage("r.png"))
	}
	j := &plan.Join{Left: &plan.Scan{Table: left}, Right: &plan.Scan{Table: right}, HumanTask: joinDef}
	pf := &plan.PreFilter{Input: j.Left, Task: filterDef, Join: j, Left: true}
	keep := o.PreFilterKeep(5, 5)

	// No trials yet: the plan-time decision stands.
	if !keep(pf, 50) {
		t.Fatal("re-check must not overturn the plan without evidence")
	}
	// Live selectivity says the filter keeps ~everything: stop paying.
	seedSelectivity(mgr, script, "isPerson", 0.97, 60)
	if keep(pf, 50) {
		t.Fatal("non-selective filter should be abandoned mid-query")
	}
	// Live selectivity says the filter drops ~everything: keep going.
	seedSelectivity(mgr, script, "isPerson", 0.05, 4000)
	if !keep(pf, 50) {
		t.Fatal("selective filter should keep filtering")
	}
	// Nothing left to submit: trivially keep.
	if !keep(pf, 0) {
		t.Fatal("remaining=0 must not flip the stage")
	}
}

func TestEstimateRemaining(t *testing.T) {
	o, mgr, script := newOptRig(t)
	def, _ := script.Task("isCat")
	mgr.SetPolicy(def.Name, taskmgr.Policy{Assignments: 3, BatchSize: 5, PriceCents: 1, UseCache: true})
	if got := o.EstimateRemaining(def, 25); got != 15 { // 5 HITs × 1c × 3
		t.Fatalf("estimate = %v", got)
	}
}
