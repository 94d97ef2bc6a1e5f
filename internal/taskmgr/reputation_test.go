package taskmgr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/relation"
)

func TestWorkerReputationSeparatesSpammers(t *testing.T) {
	// A quarter of the crowd are spammers who answer "no" to everything;
	// honest workers are highly accurate, so spammers disagree with the
	// majority on "cat" images.
	m, clock := newRig(t, catOracle, crowd.Config{
		Workers: 12, MeanSkill: 0.97, SkillStd: 0.01, SpamFraction: 0.25, Seed: 9,
	}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 5, BatchSize: 1, PriceCents: 1,
		Linger: time.Minute, UseCache: true})
	var mu sync.Mutex
	done := 0
	for i := 0; i < 40; i++ {
		img := fmt.Sprintf("cat-%d.png", i)
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(img)},
			Done: func(Outcome) { mu.Lock(); done++; mu.Unlock() }})
	}
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == 40 })

	quals := m.WorkerQualities()
	if len(quals) == 0 {
		t.Fatal("no worker reputation recorded")
	}
	// With spammers present there must be a visible agreement gap.
	low, high := quals[0], quals[len(quals)-1]
	if low.Agreement >= 0.6 {
		t.Fatalf("worst worker agreement %.2f; expected a clear spammer", low.Agreement)
	}
	if high.Agreement <= 0.8 {
		t.Fatalf("best worker agreement %.2f; expected honest majority", high.Agreement)
	}
	// The blocklist identifies low-agreement workers.
	blocked := m.BlockedWorkers(5, 0.6)
	if len(blocked) == 0 {
		t.Fatal("no workers blocked despite spammers")
	}
	for _, id := range blocked {
		for _, wq := range quals {
			if wq.ID == id && wq.Agreement >= 0.6 {
				t.Fatalf("honest worker %s blocked (%.2f)", id, wq.Agreement)
			}
		}
	}
}

func TestBlocklistImprovesAccuracy(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{
		Workers: 12, MeanSkill: 0.97, SkillStd: 0.01, SpamFraction: 0.3, Seed: 4,
	}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1,
		Linger: time.Minute, UseCache: true})

	runBatch := func(offset, n int) (correct int) {
		var mu sync.Mutex
		done := 0
		results := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			img := fmt.Sprintf("cat-%d.png", offset+i)
			m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(img)},
				Done: func(out Outcome) {
					mu.Lock()
					results[img] = out.Value.Truthy()
					done++
					mu.Unlock()
				}})
		}
		runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return done == n })
		for _, keep := range results {
			if keep { // every image is a cat: true is correct
				correct++
			}
		}
		return correct
	}

	// Phase 1 builds reputations (and suffers spam).
	before := runBatch(0, 60)
	// Phase 2 with the blocklist on: spammers are re-dispatched away.
	m.EnableBlocklist(10, 0.6)
	after := runBatch(1000, 60)
	if after < before {
		t.Fatalf("blocklist made things worse: %d/60 -> %d/60", before, after)
	}
	if after < 55 {
		t.Fatalf("blocklisted accuracy still low: %d/60", after)
	}
}

// TestRankingSpammerDetected: boolean-vote reputation never sees a
// worker who only answers Order responses, so a spammer submitting
// arbitrary permutations used to be invisible. Scoring rankings against
// the Bradley–Terry consensus pins their pair agreement near one half —
// low enough for the same blocklist thresholds that catch vote spammers
// — while honest workers stay near one.
func TestRankingSpammerDetected(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	// Six items, a to f; Rank[i] is item i's position.
	honest := []int{0, 1, 2, 3, 4, 5}
	// Junk permutations, different every HIT, like a worker dragging
	// items at random.
	junk := [][]int{
		{3, 5, 0, 4, 1, 2},
		{5, 2, 4, 0, 3, 1},
		{1, 4, 5, 2, 0, 3},
		{4, 0, 2, 5, 1, 0},
	}
	for _, j := range junk {
		m.noteWorkerRankings(len(honest), []Ranking{
			{WorkerID: "honest-1", Rank: honest},
			{WorkerID: "honest-2", Rank: honest},
			{WorkerID: "honest-3", Rank: honest},
			{WorkerID: "spammer", Rank: j},
		})
	}
	quals := m.WorkerQualities()
	if len(quals) != 4 {
		t.Fatalf("worker qualities = %d, want 4", len(quals))
	}
	if quals[0].ID != "spammer" {
		t.Fatalf("lowest agreement is %s (%.2f), want the ranking spammer", quals[0].ID, quals[0].Agreement)
	}
	if quals[0].Agreement >= 0.7 {
		t.Fatalf("spammer pair agreement %.2f; junk permutations should hover near 0.5", quals[0].Agreement)
	}
	for _, wq := range quals[1:] {
		if wq.Agreement <= 0.9 {
			t.Fatalf("honest worker %s at %.2f; consensus agreement should stay near 1", wq.ID, wq.Agreement)
		}
	}
	blocked := m.BlockedWorkers(10, 0.7)
	if len(blocked) != 1 || blocked[0] != "spammer" {
		t.Fatalf("blocked = %v, want exactly the ranking spammer", blocked)
	}
}

// TestStarvedHITStillResolves: when a blocklist (or empty pool) leaves a
// HIT without eligible workers, the outcome must still be delivered —
// with partial votes if some arrived, or an error if none ever will.
func TestStarvedHITStillResolves(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 3, MeanSkill: 0.97, Seed: 2}, 0)
	// Block every worker before any reputation exists by rejecting all.
	m.market.SetWorkerFilter(func(string) bool { return false })
	def := filterDef()
	var mu sync.Mutex
	var got *Outcome
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage("cat-x.png")},
		Done: func(o Outcome) { mu.Lock(); got = &o; mu.Unlock() }})
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return got != nil })
	if got.Err == nil {
		t.Fatal("fully starved HIT must resolve with an error")
	}
}

// TestPartiallyStarvedHITUsesAvailableVotes: if some assignments land
// before the rest become impossible, the majority uses what arrived.
func TestPartiallyStarvedHITUsesAvailableVotes(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 2, MeanSkill: 0.99, SkillStd: 0.001, Seed: 3}, 0)
	def := filterDef()
	def.Assignments = 3 // only 2 workers exist; the third assignment cycles
	allowed := 0
	var amu sync.Mutex
	m.market.SetWorkerFilter(func(string) bool {
		amu.Lock()
		defer amu.Unlock()
		allowed++
		return allowed <= 2 // first two claims pass, rest rejected forever
	})
	var mu sync.Mutex
	var got *Outcome
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage("cat-x.png")},
		Done: func(o Outcome) { mu.Lock(); got = &o; mu.Unlock() }})
	runUntil(t, clock, func() bool { mu.Lock(); defer mu.Unlock(); return got != nil })
	if got.Err != nil {
		t.Fatalf("partial HIT should resolve with votes, got error: %v", got.Err)
	}
	if len(got.Answers) != 2 {
		t.Fatalf("answers = %d, want the 2 that arrived", len(got.Answers))
	}
	if !got.Value.Bool() {
		t.Fatal("2 accurate votes on a cat should majority to true")
	}
}
