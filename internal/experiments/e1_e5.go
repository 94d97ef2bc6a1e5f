package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// E1Pipeline reproduces Figure 1: both demo queries flow through every
// component — parser, planner, executor queues, task manager,
// marketplace, crowd, cache, statistics — and the table reports each
// component's observable activity.
func E1Pipeline(seed int64) Table {
	companies := workload.Companies(6, seed)
	celebs := workload.Celebrities(4, 8, 0.5, seed+1)
	e := mustEngine(core.Config{}, defaultCrowd(seed), companies, celebs)
	defer e.Close()
	defineAll(e)

	r1, err := queryAndWait(e, query1)
	if err != nil {
		panic(err)
	}
	r2, err := queryAndWait(e, query2)
	if err != nil {
		panic(err)
	}

	market := e.Marketplace().Stats()
	cacheStats := e.Manager().Cache().Stats()
	t := Table{
		ID:      "E1",
		Title:   "Figure 1 — both demo queries through every component",
		Columns: []string{"component", "activity"},
		Notes:   "one row per architectural component of the paper's Figure 1",
	}
	add := func(c, a string) { t.Rows = append(t.Rows, []string{c, a}) }
	add("Query Optimizer", fmt.Sprintf("planned 2 queries (%d operators total)", countOps(e)))
	add("Query Executor", fmt.Sprintf("emitted %d + %d result tuples via async queues", len(r1), len(r2)))
	add("Task Manager", fmt.Sprintf("%d HITs posted from %d task applications", market.HITsPosted, submittedTotal(e)))
	add("HIT Compiler", fmt.Sprintf("%d questions compiled into forms", market.QuestionsAnswered))
	add("MTurk (simulated)", fmt.Sprintf("%d assignments completed, %s spent", market.AssignmentsCompleted, market.SpentCents))
	add("Statistics Manager", fmt.Sprintf("selectivity tracked for %d tasks", len(e.Manager().Stats())))
	add("Task Cache", fmt.Sprintf("%d entries, %d hits", cacheStats.Entries, cacheStats.Hits))
	add("Storage Engine", fmt.Sprintf("results tables closed at %.1f virtual min", e.Clock().Now().Minutes()))
	return t
}

func countOps(e *core.Engine) int {
	n := 0
	for _, h := range e.Queries() {
		n += len(h.Exec.OpStats())
	}
	return n
}

func submittedTotal(e *core.Engine) int64 {
	var n int64
	for _, s := range e.Manager().Stats() {
		n += s.Submitted
	}
	return n
}

// E2Cache reproduces the dashboard's "caching of previously executed
// UDFs on a tuple": Query 1 runs three times; runs 2-3 must be free.
func E2Cache(nCompanies int, seed int64) Table {
	ds := workload.Companies(nCompanies, seed)
	e := mustEngine(core.Config{}, defaultCrowd(seed), ds)
	defer e.Close()
	defineAll(e)

	t := Table{
		ID:      "E2",
		Title:   "Query 1 re-runs — Task Cache benefit (dashboard panel)",
		Columns: []string{"run", "HITs", "questions", "cacheHits", "spent", "latency(min)"},
		Notes:   "paper: \"We cache a given result to be used in several places (even possibly in different queries).\"",
	}
	var prevHITs, prevQ, prevHits int64
	var prevSpent int64
	for run := 1; run <= 3; run++ {
		_, latency, err := timedQuery(e, query1)
		if err != nil {
			panic(err)
		}
		s := e.Manager().StatsFor("findceo")
		t.Rows = append(t.Rows, []string{
			Cell(run),
			Cell(s.HITsPosted - prevHITs),
			Cell(s.QuestionsAsked - prevQ),
			Cell(s.CacheHits - prevHits),
			centsVal(int64(s.SpentCents) - prevSpent).String(),
			fmt.Sprintf("%.1f", latency),
		})
		prevHITs, prevQ, prevHits = s.HITsPosted, s.QuestionsAsked, s.CacheHits
		prevSpent = int64(s.SpentCents)
	}
	return t
}

type centsVal int64

func (c centsVal) String() string {
	return fmt.Sprintf("$%d.%02d", int64(c)/100, int64(c)%100)
}

// E3JoinInterfaces reproduces Figure 3's design space: the same Query 2
// cross product evaluated through different join interfaces and batch
// shapes, reporting cost, latency and accuracy versus ground truth.
func E3JoinInterfaces(nCelebs, nSpotted int, seed int64) Table {
	type variant struct {
		name     string
		cfg      exec.Config
		pairwise bool
	}
	variants := []variant{
		{name: "pairwise (1 pair/HIT)", cfg: exec.Config{JoinPairwise: true}},
		{name: "pairwise batch 5", cfg: exec.Config{JoinPairwise: true}, pairwise: true},
		{name: "two-column 3x3", cfg: exec.Config{JoinLeftBlock: 3, JoinRightBlock: 3}},
		{name: "two-column 5x5", cfg: exec.Config{JoinLeftBlock: 5, JoinRightBlock: 5}},
		{name: "two-column 8x8", cfg: exec.Config{JoinLeftBlock: 8, JoinRightBlock: 8}},
	}
	t := Table{
		ID:      "E3",
		Title:   "Figure 3 — join interface & batching sweep (Query 2)",
		Columns: []string{"interface", "HITs", "questions", "spent", "latency(min)", "precision", "recall", "F1"},
		Notes:   fmt.Sprintf("%d celebrities × %d sightings; same crowd seed per variant", nCelebs, nSpotted),
	}
	for _, v := range variants {
		ds := workload.Celebrities(nCelebs, nSpotted, 0.4, seed)
		e := mustEngine(core.Config{Exec: v.cfg}, defaultCrowd(seed), ds)
		defineAll(e)
		if v.pairwise {
			// Batch 5 pair questions per HIT.
			pol := taskmgr.DefaultPolicy()
			pol.BatchSize = 5
			e.Manager().SetPolicy("samePerson", pol)
		}
		rows, latency, err := timedQuery(e, query2)
		if err != nil {
			panic(err)
		}
		precision, recall, f1 := joinQuality(ds, rows)
		s := e.Manager().StatsFor("sameperson")
		t.Rows = append(t.Rows, []string{
			v.name,
			Cell(s.HITsPosted),
			Cell(s.QuestionsAsked),
			s.SpentCents.String(),
			fmt.Sprintf("%.1f", latency),
			Cell(precision), Cell(recall), Cell(f1),
		})
		e.Close()
	}
	return t
}

// joinQuality scores join output rows against the dataset's oracle.
func joinQuality(ds workload.Dataset, rows []relation.Tuple) (p, r, f1 float64) {
	celebs, spotted := ds.Tables[0], ds.Tables[1]
	truth := map[string]bool{}
	for _, crow := range celebs.Snapshot() {
		for _, srow := range spotted.Snapshot() {
			if ds.Oracle.Truth("samePerson", []relation.Value{crow.Get("image"), srow.Get("image")}).Truthy() {
				truth[crow.Get("name").Str()+"/"+fmt.Sprint(srow.Get("id").Int())] = true
			}
		}
	}
	predicted := map[string]bool{}
	for _, row := range rows {
		predicted[row.Values[0].Str()+"/"+fmt.Sprint(row.Values[1].Int())] = true
	}
	return precisionRecallF1(predicted, truth)
}

func precisionRecallF1(predicted, truth map[string]bool) (p, r, f1 float64) {
	tp := 0
	for k := range predicted {
		if truth[k] {
			tp++
		}
	}
	if len(predicted) > 0 {
		p = float64(tp) / float64(len(predicted))
	}
	if len(truth) > 0 {
		r = float64(tp) / float64(len(truth))
	} else {
		r = 1
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return
}

// E4TaskModel reproduces the dashboard's "use of classifiers in place of
// humans for various HITs": a filter query streams batches of photos;
// as the naive Bayes task model trains on HIT results, later batches are
// increasingly answered for free.
func E4TaskModel(batches, perBatch int, seed int64) Table {
	ds := workload.Photos(batches*perBatch, 0.5, 0.5, seed)
	photos := ds.Tables[0].Snapshot()
	e := mustEngine(core.Config{
		AttachModels:       true,
		ModelMinExamples:   perBatch, // eligible after the first batch
		ModelMinConfidence: 0.85,
	}, defaultCrowd(seed), ds)
	defer e.Close()
	defineAll(e)

	t := Table{
		ID:      "E4",
		Title:   "Task Model substitution over time (dashboard panel)",
		Columns: []string{"batch", "human", "model", "spent", "accuracy"},
		Notes:   "paper §2: \"it trains this model with HIT results with the hope of eventually reducing monetary costs through automation\"",
	}
	var prevQ, prevModel int64
	prevSpentCents := int64(0)
	for b := 0; b < batches; b++ {
		// Register this batch as its own table.
		batchTab := relation.NewTable(fmt.Sprintf("photos_b%d", b), ds.Tables[0].Schema())
		correctTruth := map[string]bool{}
		for _, row := range photos[b*perBatch : (b+1)*perBatch] {
			_ = batchTab.InsertValues(row.Values...)
			img := row.Get("img")
			correctTruth[img.Str()] = ds.Oracle.Truth("isCat", []relation.Value{img}).Truthy()
		}
		if err := e.Register(batchTab); err != nil {
			panic(err)
		}
		rows, err := queryAndWait(e, fmt.Sprintf(`SELECT img FROM photos_b%d WHERE isCat(img)`, b))
		if err != nil {
			panic(err)
		}
		predicted := map[string]bool{}
		for _, row := range rows {
			predicted[row.Values[0].Str()] = true
		}
		correct := 0
		for img, isCat := range correctTruth {
			if predicted[img] == isCat {
				correct++
			}
		}
		s := e.Manager().StatsFor("iscat")
		t.Rows = append(t.Rows, []string{
			Cell(b + 1),
			Cell(s.QuestionsAsked - prevQ),
			Cell(s.ModelAnswers - prevModel),
			centsVal(int64(s.SpentCents) - prevSpentCents).String(),
			Cell(float64(correct) / float64(perBatch)),
		})
		prevQ, prevModel = s.QuestionsAsked, s.ModelAnswers
		prevSpentCents = int64(s.SpentCents)
	}
	return t
}

// E5PreFilter reproduces the dashboard's "filtering-based reduction in
// cross-product size": a cheap isClear filter over sightings shrinks the
// join's right input, trading a few cheap filter HITs for many join
// questions.
func E5PreFilter(nCelebs, nSpotted int, seed int64) Table {
	t := Table{
		ID:      "E5",
		Title:   "Pre-filtering the join cross product (dashboard panel)",
		Columns: []string{"plan", "filterQs", "joinQs", "totalSpent", "recall(clear)"},
		Notes:   "isClear drops ~50% of sightings; pre-filtering pays in dollars when join questions are expensive (pairwise), and always shrinks the cross product",
	}
	type variantCfg struct {
		withFilter bool
		pairwise   bool
		label      string
	}
	variants := []variantCfg{
		{false, false, "grid join only"},
		{true, false, "isClear → grid join"},
		{false, true, "pairwise join only"},
		{true, true, "isClear → pairwise join"},
	}
	for _, vc := range variants {
		withFilter := vc.withFilter
		ds := workload.Celebrities(nCelebs, nSpotted, 0.4, seed)
		clearOracle := clearOracleFor()
		e := mustEngine(core.Config{Oracle: clearOracle,
			Exec: exec.Config{JoinPairwise: vc.pairwise}}, defaultCrowd(seed), ds)
		defineAll(e)
		query := query2
		if withFilter {
			query = `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars WHERE isClear(spottedstars.image) AND samePerson(celebrities.image, spottedstars.image)`
		}
		rows, err := queryAndWait(e, query)
		if err != nil {
			panic(err)
		}
		// Recall over clear sightings.
		truth := map[string]bool{}
		for _, crow := range ds.Tables[0].Snapshot() {
			for _, srow := range ds.Tables[1].Snapshot() {
				img := srow.Get("image")
				if !clearOracle.Truth("isClear", []relation.Value{img}).Truthy() {
					continue
				}
				if ds.Oracle.Truth("samePerson", []relation.Value{crow.Get("image"), img}).Truthy() {
					truth[crow.Get("name").Str()+"/"+fmt.Sprint(srow.Get("id").Int())] = true
				}
			}
		}
		predicted := map[string]bool{}
		for _, row := range rows {
			predicted[row.Values[0].Str()+"/"+fmt.Sprint(row.Values[1].Int())] = true
		}
		_, recall, _ := precisionRecallF1(predicted, truth)
		sJoin := e.Manager().StatsFor("sameperson")
		sFilter := e.Manager().StatsFor("isclear")
		t.Rows = append(t.Rows, []string{
			vc.label,
			Cell(sFilter.QuestionsAsked),
			Cell(sJoin.QuestionsAsked),
			(sJoin.SpentCents + sFilter.SpentCents).String(),
			Cell(recall),
		})
		e.Close()
	}
	return t
}

// clearOracleFor answers isClear from the street-photo number embedded
// in the sighting's image reference: even hundreds are "clear".
func clearOracleFor() crowdOracle {
	return crowdOracle{}
}

type crowdOracle struct{}

// Truth implements crowd.Oracle for the isClear feature filter.
func (crowdOracle) Truth(task string, args []relation.Value) relation.Value {
	if task != "isClear" && task != "isclear" {
		return relation.Null
	}
	ref := args[0].Str()
	// street%04d.png — use the parity of the digit before ".png".
	if len(ref) < 5 {
		return relation.NewBool(false)
	}
	d := ref[len(ref)-5]
	return relation.NewBool(d%2 == 0)
}
