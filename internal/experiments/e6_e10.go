package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qlang"
	"repro/internal/quiesce"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// E6Redundancy reproduces §1's "operator implementations must have
// redundancy built-in": assignments-per-HIT swept against majority-vote
// accuracy and cost, on a mediocre crowd where redundancy matters.
func E6Redundancy(nPhotos int, seed int64) Table {
	t := Table{
		ID:      "E6",
		Title:   "Redundancy sweep — assignments per HIT vs accuracy and cost",
		Columns: []string{"assignments", "questions", "spent", "accuracy"},
		Notes:   "crowd mean skill 0.8 with 8% spammers; majority vote per tuple",
	}
	for _, n := range []int{1, 3, 5, 7, 9} {
		ds := workload.Photos(nPhotos, 0.5, 0.5, seed)
		cfg := defaultCrowd(seed)
		cfg.MeanSkill = 0.8
		cfg.SpamFraction = 0.08
		e := mustEngine(core.Config{}, cfg, ds)
		defineAll(e)
		pol := taskmgr.DefaultPolicy()
		pol.Assignments = n
		e.Manager().SetPolicy("isCat", pol)
		rows, err := queryAndWait(e, `SELECT img FROM photos WHERE isCat(img)`)
		if err != nil {
			panic(err)
		}
		acc := filterAccuracy(ds, rows, "isCat")
		s := e.Manager().StatsFor("iscat")
		t.Rows = append(t.Rows, []string{
			Cell(n), Cell(s.QuestionsAsked), s.SpentCents.String(), Cell(acc),
		})
		e.Close()
	}
	return t
}

// filterAccuracy scores a filter query's keep/drop decisions against
// ground truth.
func filterAccuracy(ds workload.Dataset, rows []relation.Tuple, task string) float64 {
	kept := map[string]bool{}
	for _, row := range rows {
		kept[row.Values[0].Str()] = true
	}
	correct, total := 0, 0
	for _, row := range ds.Tables[0].Snapshot() {
		img := row.Get("img")
		want := ds.Oracle.Truth(task, []relation.Value{img}).Truthy()
		if kept[img.Str()] == want {
			correct++
		}
		total++
	}
	if total == 0 {
		return 1
	}
	return float64(correct) / float64(total)
}

// E7Adaptive reproduces §2's "the difficulty and selectivity of tasks
// can not be predicted a priori, requiring an adaptive approach": two
// chained human filters whose selectivities are unknown; the adaptive
// ordering converges to the cheap plan without being told.
func E7Adaptive(nPhotos int, seed int64) Table {
	t := Table{
		ID:      "E7",
		Title:   "Adaptive filter ordering under unknown selectivities",
		Columns: []string{"ordering", "isCatQs", "isOutdoorQs", "totalQs", "spent"},
		Notes:   "isCat keeps ~15% of photos, isOutdoor ~90%: running isCat first is far cheaper",
	}
	run := func(name string, cfg core.Config) {
		ds := workload.Photos(nPhotos, 0.15, 0.9, seed)
		e := mustEngine(cfg, defaultCrowd(seed), ds)
		defineAll(e)
		if _, err := queryAndWait(e, `SELECT img FROM photos WHERE isOutdoor(img) AND isCat(img)`); err != nil {
			panic(err)
		}
		cat := e.Manager().StatsFor("iscat")
		out := e.Manager().StatsFor("isoutdoor")
		t.Rows = append(t.Rows, []string{
			name,
			Cell(cat.QuestionsAsked),
			Cell(out.QuestionsAsked),
			Cell(cat.QuestionsAsked + out.QuestionsAsked),
			(cat.SpentCents + out.SpentCents).String(),
		})
		e.Close()
	}
	// Static worst: query order (isOutdoor first, keeps 90%).
	run("static worst (isOutdoor first)", core.Config{
		Exec: exec.Config{FilterOrder: func(cs []qlang.Expr) []int { return identity(len(cs)) }}})
	// Static best: oracle knowledge (isCat first).
	run("static best (isCat first)", core.Config{
		Exec: exec.Config{FilterOrder: func(cs []qlang.Expr) []int { return reversed(len(cs)) }}})
	// Adaptive: optimizer reorders from live selectivity estimates; a
	// small admission window lets early results steer later tuples.
	run("adaptive (optimizer)", core.Config{AdaptiveFilters: true,
		Exec: exec.Config{FilterWindow: 6}})
	return t
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func reversed(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// E8Batching reproduces §2's "the manager can batch several tasks into a
// single HIT": tuple-batch size swept against HIT count, cost, accuracy
// and latency, plus one operator-grouping row.
func E8Batching(nPhotos int, seed int64) Table {
	t := Table{
		ID:      "E8",
		Title:   "Batching sweep — tuples per HIT vs cost, accuracy, latency",
		Columns: []string{"variant", "HITs", "questions", "spent", "accuracy", "latency(min)"},
		Notes:   "accuracy decays with batch size (crowd penalty 0.012/question); grouping merges two filters into one HIT",
	}
	for _, b := range []int{1, 2, 5, 10} {
		ds := workload.Photos(nPhotos, 0.5, 0.5, seed)
		e := mustEngine(core.Config{}, defaultCrowd(seed), ds)
		defineAll(e)
		pol := taskmgr.DefaultPolicy()
		pol.BatchSize = b
		e.Manager().SetPolicy("isCat", pol)
		rows, latency, err := timedQuery(e, `SELECT img FROM photos WHERE isCat(img)`)
		if err != nil {
			panic(err)
		}
		s := e.Manager().StatsFor("iscat")
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("batch %d", b),
			Cell(s.HITsPosted), Cell(s.QuestionsAsked), s.SpentCents.String(),
			Cell(filterAccuracy(ds, rows, "isCat")),
			fmt.Sprintf("%.1f", latency),
		})
		e.Close()
	}
	// Operator grouping: isCat AND isOutdoor share each tuple's HIT.
	ds := workload.Photos(nPhotos, 0.5, 0.5, seed)
	e := mustEngine(core.Config{Exec: exec.Config{GroupFilters: true}}, defaultCrowd(seed), ds)
	defineAll(e)
	_, latency, err := timedQuery(e, `SELECT img FROM photos WHERE isCat(img) AND isOutdoor(img)`)
	if err != nil {
		panic(err)
	}
	cat := e.Manager().StatsFor("iscat")
	out := e.Manager().StatsFor("isoutdoor")
	t.Rows = append(t.Rows, []string{
		"grouped 2 filters",
		Cell(cat.HITsPosted + out.HITsPosted),
		Cell(cat.QuestionsAsked + out.QuestionsAsked),
		(cat.SpentCents + out.SpentCents).String(),
		"-",
		fmt.Sprintf("%.1f", latency),
	})
	e.Close()
	return t
}

// E9Sort reproduces the rank operator's two implementations from the
// companion paper: rating-based sort (O(n) HITs) versus comparison-based
// sort (O(n²) pair questions), scored by Kendall tau against the latent
// order.
func E9Sort(nItems int, seed int64) Table {
	t := Table{
		ID:      "E9",
		Title:   "Human sort — rating-based vs comparison-based",
		Columns: []string{"algorithm", "questions", "spent", "kendallTau"},
		Notes:   fmt.Sprintf("%d items with latent 1..9 quality; tau=1 is a perfect order", nItems),
	}

	// Rating-based: ORDER BY squareScore(img).
	ds := workload.RankItems(nItems, 9, "squareScore", seed)
	e := mustEngine(core.Config{}, defaultCrowd(seed), ds)
	defineAll(e)
	rows, err := queryAndWait(e, `SELECT img, truth FROM items ORDER BY squareScore(img)`)
	if err != nil {
		panic(err)
	}
	tau := tauAgainstTruth(rows)
	s := e.Manager().StatsFor("squarescore")
	t.Rows = append(t.Rows, []string{"rating (1 HIT/item)",
		Cell(s.QuestionsAsked), s.SpentCents.String(), Cell(tau)})
	e.Close()

	// Comparison-based: all-pairs "better" questions, Copeland count.
	ds = workload.RankItems(nItems, 9, "squareScore", seed)
	cmpOracle := workload.CompareOracle(ds.Tables[0], "better")
	e = mustEngine(core.Config{Oracle: cmpOracle}, defaultCrowd(seed), ds)
	defineAll(e)
	items := ds.Tables[0].Snapshot()
	betterDef := taskOf(e, "better")
	wins := make([]int, len(items))
	var mu sync.Mutex
	gate, release := drive(e)
	wg := quiesce.WaitGroup{Gate: gate}
	for i := range items {
		for j := range items {
			if i == j {
				continue
			}
			i, j := i, j
			wg.Add(1)
			e.Manager().Submit(taskmgr.Request{
				Def:  betterDef,
				Args: []relation.Value{items[i].Get("img"), items[j].Get("img")},
				Done: func(out taskmgr.Outcome) {
					defer wg.Done()
					if out.Err == nil && out.Value.Truthy() {
						mu.Lock()
						wins[i]++
						mu.Unlock()
					}
				},
			})
		}
	}
	e.Manager().Flush("better")
	wg.Wait()
	release()
	// Rank by wins ascending = quality ascending.
	measured := make([]float64, len(items))
	truthScores := make([]float64, len(items))
	for i, row := range items {
		measured[i] = float64(wins[i])
		truthScores[i] = row.Get("truth").Float()
	}
	tau2, err := stats.KendallTau(stats.RanksFromScores(measured), stats.RanksFromScores(truthScores))
	if err != nil {
		panic(err)
	}
	s = e.Manager().StatsFor("better")
	t.Rows = append(t.Rows, []string{"comparison (n² pairs)",
		Cell(s.QuestionsAsked), s.SpentCents.String(), Cell(tau2)})
	e.Close()
	return t
}

// tauAgainstTruth compares a sorted result's order against the latent
// truth column it carries.
func tauAgainstTruth(rows []relation.Tuple) float64 {
	measuredRank := make([]int, len(rows))
	truth := make([]float64, len(rows))
	for i, row := range rows {
		measuredRank[i] = i
		truth[i] = row.Get("truth").Float()
	}
	tau, err := stats.KendallTau(measuredRank, stats.RanksFromScores(truth))
	if err != nil {
		panic(err)
	}
	return tau
}

func taskOf(e *core.Engine, name string) *qlang.TaskDef {
	for _, d := range e.Tasks() {
		if d.Name == name {
			return d
		}
	}
	panic("unknown task " + name)
}

// E10Async reproduces §2's motivation for asynchronous execution: with
// minutes-scale HIT latency, Qurk's queue-connected operators overlap
// work across the plan, while a blocking iterator pays latencies in
// sequence. Both run the same two-filter query.
func E10Async(nPhotos int, seed int64) Table {
	t := Table{
		ID:      "E10",
		Title:   "Asynchronous queues vs blocking iterator (makespan)",
		Columns: []string{"executor", "questions", "makespan(min)"},
		Notes:   "same plan, same crowd; async overlaps the two filters' HIT latencies across tuples",
	}

	// Async: the real executor.
	ds := workload.Photos(nPhotos, 0.6, 0.6, seed)
	e := mustEngine(core.Config{}, defaultCrowd(seed), ds)
	defineAll(e)
	_, asyncMin, err := timedQuery(e, `SELECT img FROM photos WHERE isCat(img) AND isOutdoor(img)`)
	if err != nil {
		panic(err)
	}
	q1 := e.Manager().StatsFor("iscat").QuestionsAsked + e.Manager().StatsFor("isoutdoor").QuestionsAsked
	t.Rows = append(t.Rows, []string{"async queues (Qurk)", Cell(q1), fmt.Sprintf("%.1f", asyncMin)})
	e.Close()

	// Blocking iterator baseline: one tuple at a time, one predicate at
	// a time, waiting for each HIT before continuing.
	ds = workload.Photos(nPhotos, 0.6, 0.6, seed)
	e = mustEngine(core.Config{}, defaultCrowd(seed), ds)
	defineAll(e)
	catDef := taskOf(e, "isCat")
	outDef := taskOf(e, "isOutdoor")
	gate, release := drive(e)
	start := e.Clock().Now()
	blockingSubmit := func(def *qlang.TaskDef, img relation.Value) bool {
		var pass bool
		wg := quiesce.WaitGroup{Gate: gate}
		wg.Add(1)
		e.Manager().Submit(taskmgr.Request{
			Def:  def,
			Args: []relation.Value{img},
			Done: func(out taskmgr.Outcome) {
				pass = out.Err == nil && out.Value.Truthy()
				wg.Done()
			},
		})
		e.Manager().Flush(def.Name)
		wg.Wait()
		return pass
	}
	kept := 0
	for _, row := range ds.Tables[0].Snapshot() {
		img := row.Get("img")
		if !blockingSubmit(catDef, img) {
			continue
		}
		if blockingSubmit(outDef, img) {
			kept++
		}
	}
	blockingMin := (e.Clock().Now() - start).Minutes()
	release()
	q2 := e.Manager().StatsFor("iscat").QuestionsAsked + e.Manager().StatsFor("isoutdoor").QuestionsAsked
	t.Rows = append(t.Rows, []string{"blocking iterator", Cell(q2), fmt.Sprintf("%.1f", blockingMin)})
	e.Close()
	return t
}

// All runs every experiment at demo-scale parameters, in order.
func All(seed int64) []Table {
	return []Table{
		E1Pipeline(seed),
		E2Cache(8, seed),
		E3JoinInterfaces(8, 16, seed),
		E4TaskModel(5, 30, seed),
		E5PreFilter(6, 14, seed),
		E6Redundancy(40, seed),
		E7Adaptive(40, seed),
		E8Batching(40, seed),
		E9Sort(12, seed),
		E10Async(20, seed),
		E11SpamDefense(40, seed),
	}
}
