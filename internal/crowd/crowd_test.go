package crowd

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// boolOracle says an image is a cat iff its name contains "cat".
var boolOracle = OracleFunc(func(task string, args []relation.Value) relation.Value {
	return relation.NewBool(strings.Contains(args[0].Str(), "cat"))
})

func ynHIT(id string, keys ...string) *hit.HIT {
	h := &hit.HIT{
		ID: id, Task: "isCat", Type: qlang.TaskFilter,
		Question: "cat?", Response: qlang.Response{Kind: qlang.ResponseYesNo},
		RewardCents: 1, Assignments: 1,
	}
	for _, k := range keys {
		h.Items = append(h.Items, hit.Item{Args: []relation.Value{relation.NewImage(k + ".png")}})
	}
	return h
}

func mustAnswer(t *testing.T, p *Pool, h *hit.HIT) hit.Answers {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		claim, ok := p.Claim(h, 0)
		if !ok {
			t.Fatal("no worker")
		}
		ans, err := claim.Answer()
		if err != nil {
			continue // abandoned; try another claim
		}
		return ans
	}
	t.Fatal("all claims abandoned")
	return hit.Answers{}
}

func TestPoolDefaults(t *testing.T) {
	p := NewPool(Config{}, boolOracle)
	if p.Size() != 100 {
		t.Fatalf("size = %d", p.Size())
	}
	stats := p.Stats()
	spammers := 0
	for _, s := range stats {
		if s.Skill < 0.55 || s.Skill > 1.0 {
			t.Errorf("skill out of range: %v", s.Skill)
		}
		if s.Spammer {
			spammers++
		}
	}
	if spammers == 0 || spammers > 20 {
		t.Errorf("spammers = %d of 100", spammers)
	}
}

func TestPoolDeterminism(t *testing.T) {
	run := func() []relation.Value {
		p := NewPool(Config{Seed: 42, AbandonRate: 1e-12}, boolOracle)
		var out []relation.Value
		for i := 0; i < 20; i++ {
			ans := mustAnswer(t, p, ynHIT("h", "cat1", "dog1"))
			out = append(out, ans.Values[0], ans.Values[1])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAnswerAccuracyTracksSkill(t *testing.T) {
	p := NewPool(Config{Seed: 7, Workers: 200, MeanSkill: 0.9, SpamFraction: 1e-9, AbandonRate: 1e-12}, boolOracle)
	correct, total := 0, 0
	for i := 0; i < 300; i++ {
		h := ynHIT("h", "cat-x", "dog-y")
		ans := mustAnswer(t, p, h)
		if ans.Values[0].Bool() { // cat-x
			correct++
		}
		if !ans.Values[1].Bool() { // dog-y
			correct++
		}
		total += 2
	}
	acc := float64(correct) / float64(total)
	if acc < 0.82 || acc > 0.97 {
		t.Fatalf("observed accuracy %.3f, want ≈0.90", acc)
	}
}

func TestBatchPenaltyDegradesAccuracy(t *testing.T) {
	accFor := func(batch int) float64 {
		p := NewPool(Config{Seed: 3, Workers: 300, MeanSkill: 0.9, BatchPenalty: 0.04,
			SpamFraction: 1e-9, AbandonRate: 1e-12}, boolOracle)
		keys := make([]string, batch)
		for i := range keys {
			keys[i] = "cat" + strings.Repeat("x", i+1)
		}
		correct, total := 0, 0
		for r := 0; r < 120; r++ {
			ans := mustAnswer(t, p, ynHIT("h", keys...))
			for i := range keys {
				if ans.Values[i].Bool() {
					correct++
				}
				total++
			}
		}
		return float64(correct) / float64(total)
	}
	small, large := accFor(1), accFor(10)
	if large >= small {
		t.Fatalf("batching should reduce accuracy: batch1=%.3f batch10=%.3f", small, large)
	}
	if small-large < 0.05 {
		t.Fatalf("penalty too weak: batch1=%.3f batch10=%.3f", small, large)
	}
}

func TestClaimLatencyGrowsWithBatch(t *testing.T) {
	p1 := NewPool(Config{Seed: 5, Workers: 1, AbandonRate: 1e-12}, boolOracle)
	p2 := NewPool(Config{Seed: 5, Workers: 1, AbandonRate: 1e-12}, boolOracle)
	small, _ := p1.Claim(ynHIT("h", "a"), 0)
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = strings.Repeat("k", i+1)
	}
	large, _ := p2.Claim(ynHIT("h", keys...), 0)
	if large.Delay <= small.Delay {
		t.Fatalf("20-question HIT (%v) should take longer than 1-question (%v)", large.Delay, small.Delay)
	}
}

func TestWorkerSerializesAssignments(t *testing.T) {
	// One worker, two HITs: the second must start after the first ends.
	p := NewPool(Config{Seed: 5, Workers: 1, AbandonRate: 1e-12}, boolOracle)
	c1, _ := p.Claim(ynHIT("h1", "a"), 0)
	c2, _ := p.Claim(ynHIT("h2", "b"), 0)
	if c2.Delay <= c1.Delay {
		t.Fatalf("second assignment (%v) should finish after first (%v)", c2.Delay, c1.Delay)
	}
}

func TestManyWorkersParallelize(t *testing.T) {
	p := NewPool(Config{Seed: 5, Workers: 50, AbandonRate: 1e-12}, boolOracle)
	var maxDelay time.Duration
	for i := 0; i < 10; i++ {
		c, ok := p.Claim(ynHIT("h", "a"), 0)
		if !ok {
			t.Fatal("no worker")
		}
		if c.Delay > maxDelay {
			maxDelay = c.Delay
		}
	}
	// With 50 workers, 10 one-question HITs run in parallel: the slowest
	// should still be far under 10 sequential service times.
	if maxDelay > 5*time.Minute {
		t.Fatalf("maxDelay = %v; expected parallel dispatch", maxDelay)
	}
}

func TestEmptyPool(t *testing.T) {
	p := NewPool(Config{Workers: -1}, boolOracle)
	_ = p // Workers<=0 defaults to 100, so build a truly empty pool:
	p2 := &Pool{cfg: Config{}.withDefaults()}
	if _, ok := p2.Claim(ynHIT("h", "a"), 0); ok {
		t.Fatal("empty pool must refuse claims")
	}
}

func TestAbandonment(t *testing.T) {
	p := NewPool(Config{Seed: 11, AbandonRate: 0.9999999}, boolOracle)
	c, ok := p.Claim(ynHIT("h", "a"), 0)
	if !ok {
		t.Fatal("no worker")
	}
	if _, err := c.Answer(); err == nil {
		t.Fatal("expected abandonment error")
	}
}

func TestJoinColumnsAnswers(t *testing.T) {
	// Truth: match iff both args share the same prefix before '-'.
	oracle := OracleFunc(func(task string, args []relation.Value) relation.Value {
		a := strings.SplitN(args[0].Str(), "-", 2)[0]
		b := strings.SplitN(args[1].Str(), "-", 2)[0]
		return relation.NewBool(a == b)
	})
	p := NewPool(Config{Seed: 2, Workers: 300, MeanSkill: 0.95, SpamFraction: 1e-9, AbandonRate: 1e-12}, oracle)
	h := &hit.HIT{
		ID: "j", Task: "samePerson", Type: qlang.TaskJoinPredicate,
		Question: "match", RewardCents: 1, Assignments: 1,
		Response: qlang.Response{Kind: qlang.ResponseJoinColumns,
			LeftLabel: "L", RightLabel: "R", LeftParam: "a", RightParam: "b"},
		Left: []hit.Item{{Args: []relation.Value{relation.NewString("ann-1")}}},
		Right: []hit.Item{{Args: []relation.Value{relation.NewString("ann-2")}},
			{Args: []relation.Value{relation.NewString("bob-1")}}},
	}
	match, nomatch := 0, 0
	for i := 0; i < 100; i++ {
		ans := mustAnswer(t, p, h)
		if ans.Values[0].Bool() { // (l1, r1)
			match++
		}
		if ans.Values[1].Bool() { // (l1, r2)
			nomatch++
		}
	}
	if match < 80 {
		t.Errorf("true pair matched only %d/100", match)
	}
	if nomatch > 20 {
		t.Errorf("false pair matched %d/100", nomatch)
	}
}

func TestRatingAnswersStayInScale(t *testing.T) {
	oracle := OracleFunc(func(task string, args []relation.Value) relation.Value {
		return relation.NewInt(4)
	})
	p := NewPool(Config{Seed: 9, AbandonRate: 1e-12}, oracle)
	h := &hit.HIT{
		ID: "r", Task: "score", Type: qlang.TaskRating,
		Question: "rate", RewardCents: 1, Assignments: 1,
		Response: qlang.Response{Kind: qlang.ResponseRating, ScaleMin: 1, ScaleMax: 5},
		Items:    []hit.Item{{Args: []relation.Value{relation.NewImage("a.png")}}},
	}
	for i := 0; i < 200; i++ {
		ans := mustAnswer(t, p, h)
		v := ans.Values[0].Int()
		if v < 1 || v > 5 {
			t.Fatalf("rating %d out of scale", v)
		}
	}
}

func TestOrderAnswersArePermutation(t *testing.T) {
	oracle := OracleFunc(func(task string, args []relation.Value) relation.Value {
		return relation.NewFloat(float64(len(args[0].Str())))
	})
	p := NewPool(Config{Seed: 13, AbandonRate: 1e-12}, oracle)
	h := &hit.HIT{
		ID: "o", Task: "rank", Type: qlang.TaskRank,
		Question: "order", RewardCents: 1, Assignments: 1,
		Response: qlang.Response{Kind: qlang.ResponseOrder},
		Items: []hit.Item{
			{Args: []relation.Value{relation.NewString("x")}},
			{Args: []relation.Value{relation.NewString("xxx")}},
			{Args: []relation.Value{relation.NewString("xx")}},
		},
	}
	ans := mustAnswer(t, p, h)
	seen := map[int64]bool{}
	for _, v := range ans.Values {
		seen[v.Int()] = true
	}
	if len(ans.Values) != 3 || len(seen) != 3 || !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("ranks not a permutation: %v", ans.Values)
	}
}

func TestChoiceAnswers(t *testing.T) {
	oracle := OracleFunc(func(task string, args []relation.Value) relation.Value {
		return relation.NewString("pos")
	})
	p := NewPool(Config{Seed: 21, Workers: 100, MeanSkill: 0.9, AbandonRate: 1e-12}, oracle)
	h := &hit.HIT{
		ID: "c", Task: "sentiment", Type: qlang.TaskQuestion,
		Question: "sentiment?", RewardCents: 1, Assignments: 1,
		Response: qlang.Response{Kind: qlang.ResponseChoice, Options: []string{"pos", "neg", "neutral"}},
		Items:    []hit.Item{{Args: []relation.Value{relation.NewString("great")}}},
	}
	pos := 0
	for i := 0; i < 100; i++ {
		ans := mustAnswer(t, p, h)
		got := ans.Values[0].Str()
		valid := false
		for _, o := range h.Response.Options {
			if got == o {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("invalid choice %q", got)
		}
		if got == "pos" {
			pos++
		}
	}
	if pos < 70 {
		t.Errorf("correct choice only %d/100", pos)
	}
}

func TestFormCorruption(t *testing.T) {
	truth := relation.NewTuple(
		relation.Field{Name: "CEO", Value: relation.NewString("Ada")},
		relation.Field{Name: "Phone", Value: relation.NewString("555")},
	)
	oracle := OracleFunc(func(task string, args []relation.Value) relation.Value { return truth })
	// All-spammer pool: answers must be corrupted, never the truth.
	p := NewPool(Config{Seed: 4, SpamFraction: 0.9999999, AbandonRate: 1e-12}, oracle)
	h := &hit.HIT{
		ID: "f", Task: "findCEO", Type: qlang.TaskQuestion,
		Question: "find", RewardCents: 1, Assignments: 1,
		Response: qlang.Response{Kind: qlang.ResponseForm, Fields: []qlang.FormField{
			{Label: "CEO", Kind: relation.KindString}, {Label: "Phone", Kind: relation.KindString}}},
		Items: []hit.Item{{Args: []relation.Value{relation.NewString("Acme")}}},
	}
	ans := mustAnswer(t, p, h)
	if ans.Values[0].Equal(truth) {
		t.Fatal("spammer returned the exact truth")
	}
	if ans.Values[0].Kind() != relation.KindTuple {
		t.Fatalf("corrupted answer should stay a tuple: %v", ans.Values[0])
	}
}

func TestPoolWorksWithMarketplace(t *testing.T) {
	clock := mturk.NewClock()
	p := NewPool(Config{Seed: 6, AbandonRate: 1e-12}, boolOracle)
	m := mturk.NewMarketplace(clock, p)
	h := ynHIT(m.NewHITID(), "cat-a")
	h.Assignments = 5
	got := 0
	_ = m.Post(h, func(r mturk.AssignmentResult) { got++ })
	for clock.Step() {
	}
	if got != 5 {
		t.Fatalf("assignments = %d", got)
	}
	stats := p.Stats()
	answered := 0
	for _, s := range stats {
		answered += s.Answered
	}
	if answered != 5 {
		t.Fatalf("pool answered = %d", answered)
	}
}
