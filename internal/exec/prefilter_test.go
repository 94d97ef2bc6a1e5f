package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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

// preFilterScript declares the join + feature-filter pair the adaptive
// join optimization works on.
const preFilterScript = `
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

// preFilterOracle: images named "pN-..." are people (person N); "junk-*"
// are not. samePerson matches equal person prefixes.
var preFilterOracle = crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
	switch strings.ToLower(task) {
	case "isperson":
		return relation.NewBool(strings.HasPrefix(args[0].Str(), "p"))
	case "sameperson":
		a := strings.SplitN(args[0].Str(), "-", 2)[0]
		b := strings.SplitN(args[1].Str(), "-", 2)[0]
		return relation.NewBool(strings.HasPrefix(a, "p") && a == b)
	default:
		return relation.Null
	}
})

func newPreFilterRig(t *testing.T) *rig {
	t.Helper()
	script, err := qlang.Parse(preFilterScript)
	if err != nil {
		t.Fatal(err)
	}
	clock := mturk.NewClock()
	pool := crowd.NewPool(crowd.Config{
		Seed: 7, Workers: 200, MeanSkill: 0.99, SkillStd: 1e-9,
		SpamFraction: 1e-12, AbandonRate: 1e-12, BatchPenalty: 1e-9,
	}, preFilterOracle)
	market := mturk.NewMarketplace(clock, pool)
	mgr := taskmgr.New(market, cache.New(), model.NewRegistry(), budget.NewAccount(0))
	r := &rig{script: script, catalog: relation.NewCatalog(), mgr: mgr, clock: clock, pool: pool,
		stop: make(chan struct{})}
	go clock.Run(func() bool {
		select {
		case <-r.stop:
			return true
		default:
			return false
		}
	})
	t.Cleanup(func() { close(r.stop); clock.Close() })
	return r
}

func (r *rig) celebTables(t *testing.T, celebs, junkCelebs, spotted, junkSpotted int) {
	t.Helper()
	var crows, srows [][]relation.Value
	for i := 0; i < celebs; i++ {
		crows = append(crows, []relation.Value{
			relation.NewString(fmt.Sprintf("celeb%d", i)),
			relation.NewImage(fmt.Sprintf("p%d-studio.png", i))})
	}
	for i := 0; i < junkCelebs; i++ {
		crows = append(crows, []relation.Value{
			relation.NewString(fmt.Sprintf("blur%d", i)),
			relation.NewImage(fmt.Sprintf("junk-c%d.png", i))})
	}
	for i := 0; i < spotted; i++ {
		srows = append(srows, []relation.Value{
			relation.NewInt(int64(i)),
			relation.NewImage(fmt.Sprintf("p%d-street.png", i))})
	}
	for i := 0; i < junkSpotted; i++ {
		srows = append(srows, []relation.Value{
			relation.NewInt(int64(1000 + i)),
			relation.NewImage(fmt.Sprintf("junk-s%d.png", i))})
	}
	r.addTable(t, "celebrities",
		[]relation.Column{{Name: "name", Kind: relation.KindString}, {Name: "image", Kind: relation.KindImage}},
		crows...)
	r.addTable(t, "spottedstars",
		[]relation.Column{{Name: "id", Kind: relation.KindInt}, {Name: "image", Kind: relation.KindImage}},
		srows...)
}

const celebJoinQuery = `
SELECT celebrities.name, spottedstars.id
FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`

// runPlan is rig.run with a plan-rewrite step in between.
func (r *rig) runPlan(t *testing.T, query string, rewrite func(plan.Node) plan.Node, cfg Config) (*Query, []relation.Tuple) {
	t.Helper()
	stmt, err := qlang.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Build(stmt, r.script, r.catalog)
	if err != nil {
		t.Fatal(err)
	}
	if rewrite != nil {
		node = rewrite(node)
	}
	cfg.Mgr = r.mgr
	cfg.Script = r.script
	q, err := Start(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []relation.Tuple)
	go func() { done <- q.Wait() }()
	select {
	case rows := <-done:
		return q, rows
	case <-time.After(15 * time.Second):
		t.Fatalf("query stuck; opstats=%v pending=%d inflight=%d",
			q.OpStats(), r.mgr.Pending(), r.mgr.Inflight())
		return nil, nil
	}
}

// TestPreFilterJoinEndToEnd: the pre-filter stage drops junk tuples, so
// the join buys fewer pairs but still finds every true match.
func TestPreFilterJoinEndToEnd(t *testing.T) {
	r := newPreFilterRig(t)
	r.celebTables(t, 3, 2, 4, 6) // 5×10 inputs, 3×4 clean
	rewrite := func(n plan.Node) plan.Node {
		return plan.ApplyPreFilters(n, r.script, func(join, filter *qlang.TaskDef, l, r int) plan.PreFilterDecision {
			return plan.PreFilterDecision{Left: true, Right: true}
		})
	}
	q, rows := r.runPlan(t, celebJoinQuery, rewrite, Config{})
	if errs := q.Errors(); len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	got := map[string]bool{}
	for _, row := range rows {
		got[fmt.Sprintf("%s/%d", row.Values[0].Str(), row.Values[1].Int())] = true
	}
	want := map[string]bool{"celeb0/0": true, "celeb1/1": true, "celeb2/2": true}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing match %s in %v", k, got)
		}
	}
	// The join only saw the survivors: 3×4 pairs, not 5×10.
	if s := r.mgr.StatsFor("sameperson"); s.Submitted != 12 {
		t.Errorf("join pairs bought = %d, want 12 (pre-filtered)", s.Submitted)
	}
	if s := r.mgr.StatsFor("isperson"); s.Submitted != 15 {
		t.Errorf("filter questions = %d, want 15 (5 left + 10 right)", s.Submitted)
	}
	reds := q.JoinReductions()
	if len(reds) != 1 {
		t.Fatalf("reductions = %+v", reds)
	}
	red := reds[0]
	if red.LeftIn != 5 || red.LeftKept != 3 || red.RightIn != 10 || red.RightKept != 4 {
		t.Errorf("reduction counts = %+v", red)
	}
	if red.PairsAvoided != 5*10-3*4 {
		t.Errorf("pairs avoided = %d, want 38", red.PairsAvoided)
	}
	if red.Task != "samePerson" {
		t.Errorf("task = %q", red.Task)
	}
}

// TestPreFilterReplansMidQuery: when the keep-hook withdraws approval
// after the first block, the rest of the input flows through unfiltered
// — the re-plan of the remaining, un-submitted blocks.
func TestPreFilterReplansMidQuery(t *testing.T) {
	r := newPreFilterRig(t)
	// Left: p0 junk p1 junk p2 junk p3 junk (interleaved by plan order:
	// celebTables appends people first, junk after).
	r.celebTables(t, 4, 4, 2, 0) // left 8 (4 clean), right 2 clean
	var mu sync.Mutex
	var remainings []int
	rewrite := func(n plan.Node) plan.Node {
		return plan.ApplyPreFilters(n, r.script, func(join, filter *qlang.TaskDef, l, r int) plan.PreFilterDecision {
			return plan.PreFilterDecision{Left: true} // only the left side
		})
	}
	cfg := Config{
		PreFilterBlock: 4,
		PreFilterKeep: func(pf *plan.PreFilter, remaining int) bool {
			mu.Lock()
			remainings = append(remainings, remaining)
			mu.Unlock()
			return false // live stats say: stop filtering
		},
	}
	q, rows := r.runPlan(t, celebJoinQuery, rewrite, cfg)
	if errs := q.Errors(); len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	// Matches p0, p1 exist either way; the re-plan shows in the counts.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	mu.Lock()
	calls := append([]int(nil), remainings...)
	mu.Unlock()
	if len(calls) != 1 || calls[0] != 4 {
		t.Fatalf("keep-hook calls = %v, want one call with 4 uncached remaining", calls)
	}
	reds := q.JoinReductions()
	if len(reds) != 1 {
		t.Fatalf("reductions = %+v", reds)
	}
	red := reds[0]
	// Block one (p0 p1 p2 p3) was filtered — all four are people, all
	// survive; the junk block passed through unfiltered after the hook
	// said stop. Everything is kept, nothing more is spent on filtering.
	if red.LeftIn != 8 || red.LeftKept != 8 {
		t.Errorf("reduction = %+v; pass-through must keep the rest", red)
	}
	if s := r.mgr.StatsFor("isperson"); s.Submitted != 4 {
		t.Errorf("filter questions = %d, want 4 (one block, then re-plan)", s.Submitted)
	}
	// The junk rows reached the join: 8×2 pairs were bought.
	if s := r.mgr.StatsFor("sameperson"); s.Submitted != 16 {
		t.Errorf("join pairs = %d, want 16", s.Submitted)
	}
}

// TestPreFilterCachedAnswersAreFree: cached filter answers resolve
// without HITs and don't count as "remaining" work in the re-check.
func TestPreFilterCachedAnswersAreFree(t *testing.T) {
	r := newPreFilterRig(t)
	r.celebTables(t, 2, 2, 2, 2)
	// Pre-seed the cache with every left-side answer.
	fdef, _ := r.script.Task("isPerson")
	for _, img := range []string{"p0-studio.png", "p1-studio.png", "junk-c0.png", "junk-c1.png"} {
		val := relation.NewBool(strings.HasPrefix(img, "p"))
		r.mgr.Cache().Put(cache.NewKey(fdef.Name, []relation.Value{relation.NewImage(img)}),
			cache.EncodeAnswers([]relation.Value{val}))
	}
	var remainings []int
	var mu sync.Mutex
	rewrite := func(n plan.Node) plan.Node {
		return plan.ApplyPreFilters(n, r.script, func(join, filter *qlang.TaskDef, l, r int) plan.PreFilterDecision {
			return plan.PreFilterDecision{Left: true}
		})
	}
	cfg := Config{
		PreFilterBlock: 2,
		PreFilterKeep: func(pf *plan.PreFilter, remaining int) bool {
			mu.Lock()
			remainings = append(remainings, remaining)
			mu.Unlock()
			return true
		},
	}
	q, _ := r.runPlan(t, celebJoinQuery, rewrite, cfg)
	if errs := q.Errors(); len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(remainings) != 1 || remainings[0] != 0 {
		t.Fatalf("keep-hook saw remaining=%v, want [0]: cached answers are free", remainings)
	}
	if s := r.mgr.StatsFor("isperson"); s.HITsPosted != 0 {
		t.Errorf("filter HITs = %d, want 0 (all cached)", s.HITsPosted)
	}
}

// TestOrderByErrorPathEmitsRows: when sort-key resolution fails
// outright, every key slot is filled with relation.Null (not zero
// values), the sort stays well-defined, and all rows still come out.
func TestOrderByErrorPathEmitsRows(t *testing.T) {
	r := newExecRig(t, 0.97)
	r.addTable(t, "photos",
		[]relation.Column{{Name: "id", Kind: relation.KindInt}, {Name: "img", Kind: relation.KindImage}},
		[]relation.Value{relation.NewInt(1), relation.NewImage("a.png")},
		[]relation.Value{relation.NewInt(2), relation.NewImage("b.png")},
		[]relation.Value{relation.NewInt(3), relation.NewImage("c.png")},
	)
	// The trailing local key keeps this a generic OrderBy plan (a bare
	// single ranking key would build plan.Rank, which fails fast at
	// Start without a task manager — see TestRankNeedsManager).
	stmt, err := qlang.ParseQuery(`SELECT * FROM photos ORDER BY squareScore(img) DESC, id`)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Build(stmt, r.script, r.catalog)
	if err != nil {
		t.Fatal(err)
	}
	// No task manager: resolveCalls fails for every tuple, driving the
	// outer error path of runOrderBy.
	q, err := Start(node, Config{Script: r.script})
	if err != nil {
		t.Fatal(err)
	}
	rows := q.Wait()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want all 3 despite key errors", len(rows))
	}
	if errs := q.Errors(); len(errs) != 3 {
		t.Fatalf("errors = %v, want one per tuple", errs)
	}
	// With every key Null the stable sort preserves input order.
	for i, row := range rows {
		if got := row.Values[0].Int(); got != int64(i+1) {
			t.Fatalf("row %d = %d; Null keys must keep input order", i, got)
		}
	}
}
