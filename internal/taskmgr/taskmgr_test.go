package taskmgr

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
	"repro/internal/qlang"
	"repro/internal/relation"
)

// newRig builds a manager over a simulated crowd with the given oracle.
func newRig(t *testing.T, oracle crowd.Oracle, cfg crowd.Config, limit budget.Cents) (*Manager, *mturk.Clock) {
	t.Helper()
	clock := mturk.NewClock()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.AbandonRate == 0 {
		cfg.AbandonRate = 1e-12
	}
	if cfg.SpamFraction == 0 {
		cfg.SpamFraction = 1e-12
	}
	pool := crowd.NewPool(cfg, oracle)
	market := mturk.NewMarketplace(clock, pool)
	return New(market, cache.New(), model.NewRegistry(), budget.NewAccount(limit)), clock
}

var catOracle = crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
	return relation.NewBool(strings.Contains(args[0].Str(), "cat"))
})

func filterDef() *qlang.TaskDef {
	def, err := qlang.ParseTaskDef(`
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
`)
	if err != nil {
		panic(err)
	}
	return def
}

func joinDef() *qlang.TaskDef {
	def, err := qlang.ParseTaskDef(`
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
`)
	if err != nil {
		panic(err)
	}
	return def
}

// runUntil pumps the clock until cond holds (or fails the test).
func runUntil(t *testing.T, clock *mturk.Clock, cond func() bool) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		clock.Run(cond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clock pump stuck")
	}
}

func submitAndWait(t *testing.T, m *Manager, clock *mturk.Clock, def *qlang.TaskDef, args ...relation.Value) Outcome {
	t.Helper()
	var mu sync.Mutex
	var got *Outcome
	m.Submit(Request{Def: def, Args: args, Done: func(o Outcome) {
		mu.Lock()
		got = &o
		mu.Unlock()
	}})
	runUntil(t, clock, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got != nil
	})
	return *got
}

func TestSubmitFilterMajority(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.95}, 0)
	out := submitAndWait(t, m, clock, filterDef(), relation.NewImage("cat-1.png"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Value.Bool() {
		t.Fatalf("cat not recognized: %+v", out)
	}
	if len(out.Answers) != 3 {
		t.Fatalf("answers = %d, want 3 (default redundancy)", len(out.Answers))
	}
	if out.FromCache || out.FromModel {
		t.Fatal("first answer cannot be cache/model")
	}
	s := m.StatsFor("iscat")
	if s.HITsPosted != 1 || s.QuestionsAsked != 1 || s.Submitted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SpentCents != 3 { // 3 assignments × 1 cent
		t.Fatalf("spent = %v", s.SpentCents)
	}
	if s.MeanLatencyMin <= 0 {
		t.Fatal("latency not observed")
	}
}

func TestCacheHitIsFree(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.95}, 0)
	def := filterDef()
	first := submitAndWait(t, m, clock, def, relation.NewImage("cat-1.png"))
	if first.FromCache {
		t.Fatal("first call cached?")
	}
	second := submitAndWait(t, m, clock, def, relation.NewImage("cat-1.png"))
	if !second.FromCache {
		t.Fatal("second call should hit the cache")
	}
	if second.Value.Bool() != first.Value.Bool() {
		t.Fatal("cache changed the answer")
	}
	s := m.StatsFor("iscat")
	if s.CacheHits != 1 || s.HITsPosted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := m.Account().Spent(); got != 3 {
		t.Fatalf("spent = %v; cache hit must be free", got)
	}
}

func TestBatchingReducesHITs(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.95}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 5, PriceCents: 1,
		Linger: time.Minute, UseCache: true})
	var mu sync.Mutex
	done := 0
	for i := 0; i < 10; i++ {
		img := fmt.Sprintf("cat-%d.png", i)
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(img)},
			Done: func(Outcome) { mu.Lock(); done++; mu.Unlock() }})
	}
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == 10 })
	s := m.StatsFor("iscat")
	if s.HITsPosted != 2 {
		t.Fatalf("10 tuples at batch 5 should be 2 HITs, got %d", s.HITsPosted)
	}
	if s.QuestionsAsked != 10 {
		t.Fatalf("questions = %d", s.QuestionsAsked)
	}
	if m.Account().Spent() != 2 {
		t.Fatalf("spent = %v; batching should cut cost", m.Account().Spent())
	}
}

func TestLingerFlushesPartialBatch(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.95}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 10, PriceCents: 1,
		Linger: 30 * time.Second, UseCache: true})
	var mu sync.Mutex
	done := 0
	for i := 0; i < 3; i++ { // far less than the batch size
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(fmt.Sprintf("cat-%d", i))},
			Done: func(Outcome) { mu.Lock(); done++; mu.Unlock() }})
	}
	if m.Pending() != 3 {
		t.Fatalf("pending = %d", m.Pending())
	}
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == 3 })
	if m.StatsFor("iscat").HITsPosted != 1 {
		t.Fatal("linger should post exactly one partial HIT")
	}
}

func TestExplicitFlush(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.95}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 10, PriceCents: 1,
		Linger: 0, UseCache: true}) // no linger: only explicit flush
	var mu sync.Mutex
	done := 0
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage("cat-a")},
		Done: func(Outcome) { mu.Lock(); done++; mu.Unlock() }})
	m.Flush(def.Name)
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == 1 })
	if m.Pending() != 0 || m.Inflight() != 0 {
		t.Fatalf("pending=%d inflight=%d", m.Pending(), m.Inflight())
	}
}

func TestBudgetExhaustionFailsTask(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.95}, 2) // 2 cents total
	def := filterDef()                                                 // needs 3 cents (3 assignments)
	out := submitAndWait(t, m, clock, def, relation.NewImage("cat-1.png"))
	if out.Err == nil {
		t.Fatal("expected budget error")
	}
	if m.Account().Spent() != 0 {
		t.Fatalf("failed task still spent %v", m.Account().Spent())
	}
}

func TestModelSubstitutesAfterTraining(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.97, Workers: 300}, 0)
	def := filterDef()
	m.Models().Attach(model.NewTaskModel(def.Name, model.NewNaiveBayes(), 30, 0.8))
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1,
		Linger: time.Minute, UseCache: true, UseModel: true, TrainModel: true})
	// Phase 1: train with 40 distinct images.
	var mu sync.Mutex
	done := 0
	for i := 0; i < 40; i++ {
		img := fmt.Sprintf("cat-photo-%04d.png", i)
		if i%2 == 1 {
			img = fmt.Sprintf("dog-photo-%04d.png", i)
		}
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(img)},
			Done: func(Outcome) { mu.Lock(); done++; mu.Unlock() }})
	}
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == 40 })
	// Phase 2: fresh images; the model should now answer some for free.
	spentBefore := m.Account().Spent()
	for i := 0; i < 40; i++ {
		img := fmt.Sprintf("cat-photo-%04d.png", 1000+i)
		if i%2 == 1 {
			img = fmt.Sprintf("dog-photo-%04d.png", 1000+i)
		}
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(img)},
			Done: func(Outcome) { mu.Lock(); done++; mu.Unlock() }})
	}
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == 80 })
	s := m.StatsFor("iscat")
	if s.ModelAnswers == 0 {
		t.Fatal("model never substituted")
	}
	humanCost := m.Account().Spent() - spentBefore
	if humanCost >= 40 {
		t.Fatalf("model saved nothing: phase-2 cost %v", humanCost)
	}
}

func TestJoinBlockAnswersEveryPair(t *testing.T) {
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		a := strings.SplitN(args[0].Str(), "-", 2)[0]
		b := strings.SplitN(args[1].Str(), "-", 2)[0]
		return relation.NewBool(a == b)
	})
	m, clock := newRig(t, oracle, crowd.Config{MeanSkill: 0.97, Workers: 200}, 0)
	def := joinDef()
	left := []JoinItem{
		{Key: "l1", Args: []relation.Value{relation.NewImage("ann-celeb.png")}},
		{Key: "l2", Args: []relation.Value{relation.NewImage("bob-celeb.png")}},
	}
	right := []JoinItem{
		{Key: "r1", Args: []relation.Value{relation.NewImage("ann-spotted.png")}},
		{Key: "r2", Args: []relation.Value{relation.NewImage("col-spotted.png")}},
	}
	var mu sync.Mutex
	got := map[[2]int]bool{} // by (left, right) position
	m.JoinBlockIn(nil, def, left, right, func(l, r int, out Outcome) {
		mu.Lock()
		got[[2]int{l, r}] = out.Value.Bool()
		mu.Unlock()
	})
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 4 })
	if !got[[2]int{0, 0}] {
		t.Error("ann pair should match")
	}
	if got[[2]int{1, 1}] || got[[2]int{0, 1}] || got[[2]int{1, 0}] {
		t.Errorf("false matches: %v", got)
	}
	s := m.StatsFor("sameperson")
	if s.HITsPosted != 1 {
		t.Fatalf("whole block should be one HIT, got %d", s.HITsPosted)
	}
	if s.QuestionsAsked != 4 {
		t.Fatalf("questions = %d", s.QuestionsAsked)
	}
}

func TestJoinBlockFullyCachedPostsNothing(t *testing.T) {
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		return relation.NewBool(true)
	})
	m, clock := newRig(t, oracle, crowd.Config{MeanSkill: 0.99}, 0)
	def := joinDef()
	left := []JoinItem{{Key: "l1", Args: []relation.Value{relation.NewImage("a.png")}}}
	right := []JoinItem{{Key: "r1", Args: []relation.Value{relation.NewImage("b.png")}}}
	var mu sync.Mutex
	n := 0
	m.JoinBlockIn(nil, def, left, right, func(int, int, Outcome) { mu.Lock(); n++; mu.Unlock() })
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return n == 1 })
	spent := m.Account().Spent()
	// Re-run the same block with different keys but identical values.
	left2 := []JoinItem{{Key: "x1", Args: []relation.Value{relation.NewImage("a.png")}}}
	right2 := []JoinItem{{Key: "y1", Args: []relation.Value{relation.NewImage("b.png")}}}
	m.JoinBlockIn(nil, def, left2, right2, func(_, _ int, out Outcome) {
		mu.Lock()
		n++
		mu.Unlock()
		if !out.FromCache {
			t.Error("expected cache hit")
		}
	})
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return n == 2 })
	if m.Account().Spent() != spent {
		t.Fatal("fully cached block still spent money")
	}
	if m.StatsFor("sameperson").HITsPosted != 1 {
		t.Fatal("second block should post no HIT")
	}
}

func TestPolicyMergeAndOverrides(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	def.Assignments = 7
	def.PriceCents = 5
	pol := m.PolicyFor(def)
	if pol.Assignments != 7 || pol.PriceCents != 5 {
		t.Fatalf("task overrides lost: %+v", pol)
	}
	if pol.BatchSize != 1 || !pol.UseCache {
		t.Fatalf("defaults lost: %+v", pol)
	}
	m.SetBasePolicy(Policy{Assignments: 2, BatchSize: 4, PriceCents: 2, UseCache: true})
	fresh := filterDef() // no overrides, distinct task name
	fresh.Name = "isDog"
	pol2 := m.PolicyFor(fresh)
	if pol2.Assignments != 2 || pol2.BatchSize != 4 {
		t.Fatalf("base policy ignored: %+v", pol2)
	}
}

func TestRatingTaskReducesToMean(t *testing.T) {
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
		return relation.NewInt(4)
	})
	m, clock := newRig(t, oracle, crowd.Config{MeanSkill: 0.99, Workers: 100}, 0)
	def, err := qlang.ParseTaskDef(`
TASK score(Image pic)
RETURNS Int:
  TaskType: Rating
  Text: "Rate %s", pic
  Response: Rating(1, 5)
`)
	if err != nil {
		t.Fatal(err)
	}
	out := submitAndWait(t, m, clock, def, relation.NewImage("a.png"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Value.Kind() != relation.KindFloat {
		t.Fatalf("rating reduce kind = %v", out.Value.Kind())
	}
	if v := out.Value.Float(); v < 2.5 || v > 5 {
		t.Fatalf("mean rating = %v, want near 4", v)
	}
}

func TestQuestionTaskMajorityValue(t *testing.T) {
	truth := relation.NewTuple(
		relation.Field{Name: "CEO", Value: relation.NewString("Ada Lovelace")},
		relation.Field{Name: "Phone", Value: relation.NewString("555-0100")},
	)
	oracle := crowd.OracleFunc(func(task string, args []relation.Value) relation.Value { return truth })
	m, clock := newRig(t, oracle, crowd.Config{MeanSkill: 0.95, Workers: 100}, 0)
	def, err := qlang.ParseTaskDef(`
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO of %s", companyName
  Response: Form(("CEO", String), ("Phone", String))
`)
	if err != nil {
		t.Fatal(err)
	}
	def.Assignments = 5
	out := submitAndWait(t, m, clock, def, relation.NewString("Acme"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Value.Equal(truth) {
		t.Fatalf("majority answer = %v, want %v", out.Value, truth)
	}
	if out.Agreement <= 0.5 {
		t.Fatalf("agreement = %v", out.Agreement)
	}
}

func TestGroupedPromptsCarriedPerItem(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.95}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 2, PriceCents: 1,
		Linger: time.Minute, UseCache: true})
	var mu sync.Mutex
	done := 0
	for i := 0; i < 2; i++ {
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(fmt.Sprintf("cat-%d", i))},
			Done: func(Outcome) { mu.Lock(); done++; mu.Unlock() }})
	}
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == 2 })
	if m.StatsFor("iscat").HITsPosted != 1 {
		t.Fatal("grouping should share one HIT")
	}
}

func TestStatsSorted(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	m.SetPolicy("zeta", DefaultPolicy())
	m.SetPolicy("alpha", DefaultPolicy())
	all := m.Stats()
	if len(all) != 2 || all[0].Task != "alpha" || all[1].Task != "zeta" {
		t.Fatalf("stats order = %v", all)
	}
}
