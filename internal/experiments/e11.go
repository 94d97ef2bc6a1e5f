package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/quiesce"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// E11SpamDefense is an extension experiment: the agreement-based worker
// reputation the CIDR companion paper proposes, turned into an MTurk-
// style qualification. A heavily spammed crowd answers a filter
// workload; phase 1 builds reputations (and suffers), then the
// blocklist activates and phase 2 re-runs fresh tuples without the
// spammers.
func E11SpamDefense(nPerPhase int, seed int64) Table {
	t := Table{
		ID:      "E11",
		Title:   "Worker reputation & blocklist (extension) — spam resistance",
		Columns: []string{"phase", "questions", "spent", "accuracy", "blockedWorkers"},
		Notes:   "crowd has 30% spammers; phase 1 uses 5-way majorities to learn reputations, phase 2 blocks agreement < 0.75 and drops to 3-way redundancy",
	}
	ds := workload.Photos(2*nPerPhase, 0.5, 0.5, seed)
	cfg := defaultCrowd(seed)
	cfg.Workers = 20
	cfg.SpamFraction = 0.3
	cfg.MeanSkill = 0.95
	e := mustEngine(core.Config{}, cfg, ds)
	defer e.Close()
	defineAll(e)
	def := taskOf(e, "isCat")
	setAssignments := func(n int) {
		p := taskmgr.DefaultPolicy()
		p.Assignments = n
		e.Manager().SetPolicy(def.Name, p)
	}
	// Phase 1 invests in redundancy: 5-way majorities both resist the
	// spam and give crisp reputation evidence.
	setAssignments(5)

	photos := ds.Tables[0].Snapshot()
	gate, release := drive(e)
	defer release()
	runPhase := func(phase int) (questions int64, spent string, acc float64) {
		var mu sync.Mutex
		wg := quiesce.WaitGroup{Gate: gate}
		results := map[string]bool{}
		before := e.Manager().StatsFor("iscat")
		lo, hi := (phase-1)*nPerPhase, phase*nPerPhase
		for _, row := range photos[lo:hi] {
			img := row.Get("img")
			wg.Add(1)
			e.Manager().Submit(taskmgr.Request{
				Def:  def,
				Args: []relation.Value{img},
				Done: func(out taskmgr.Outcome) {
					mu.Lock()
					results[img.Str()] = out.Value.Truthy()
					mu.Unlock()
					wg.Done()
				},
			})
		}
		e.Manager().Flush(def.Name)
		wg.Wait()
		correct := 0
		for img, keep := range results {
			if keep == ds.Oracle.Truth("isCat", []relation.Value{relation.NewImage(img)}).Truthy() {
				correct++
			}
		}
		after := e.Manager().StatsFor("iscat")
		return after.QuestionsAsked - before.QuestionsAsked,
			centsVal(int64(after.SpentCents - before.SpentCents)).String(),
			float64(correct) / float64(nPerPhase)
	}

	q1, s1, a1 := runPhase(1)
	t.Rows = append(t.Rows, []string{"1 (no defense)", Cell(q1), s1, Cell(a1), "0"})

	// Phase 2 blocks low-agreement workers and, with a clean crowd,
	// drops back to cheap 3-way redundancy.
	e.Manager().EnableBlocklist(5, 0.75)
	blocked := e.Manager().BlockedWorkers(5, 0.75)
	setAssignments(3)
	q2, s2, a2 := runPhase(2)
	t.Rows = append(t.Rows, []string{"2 (blocklist on)", Cell(q2), s2, Cell(a2),
		fmt.Sprintf("%d", len(blocked))})
	return t
}
