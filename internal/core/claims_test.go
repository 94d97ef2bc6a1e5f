package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/exec"
	"repro/internal/mturk"
	"repro/internal/plan"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/workload"
)

// claimStmt is one SQL statement a claim side runs.
type claimStmt struct {
	sql  string
	opts []QueryOption
	// cancelAfter, when positive, cancels the query's context as soon
	// as that many rows have arrived.
	cancelAfter int
}

// claimSide is one side of an engine claim: a fresh engine built from
// cfg over data's tables and tasks, running stmts through Engine.Query.
type claimSide struct {
	cfg   Config // Oracle comes from data
	data  func() workload.Dataset
	tasks string
	stmts []claimStmt
	// concurrent runs every statement at once, each on its own
	// goroutine; otherwise they run one after another.
	concurrent bool
	// pace paces the clock while the statements run (0 = full speed),
	// so concurrent or streaming work overlaps in virtual time.
	pace float64
	// read records case-specific figures before the engine closes.
	read func(e *Engine, r *claimRun)
}

// claimRun is what one side produced.
type claimRun struct {
	// Rows fingerprints each statement's rows: in arrival order under
	// ORDER BY, as a sorted set otherwise. rows keeps them in arrival
	// order.
	Rows []uint64
	rows [][]string
	// Spent, HITs and Assignments are the engine's totals over every
	// backend; ByBackend counts HITs per backend.
	Spent       budget.Cents
	HITs        int
	Assignments int
	ByBackend   map[string]int64
	// Drift is the sum of SunkCents over Queries() minus account spend.
	Drift budget.Cents
	// Makespan is the virtual time when the crowd went quiet.
	Makespan mturk.VirtualTime
	// Journal hashes every record the manager journaled, in order
	// (without a store).
	Journal uint64
	// Extra holds the figures a case's read hook records.
	Extra map[string]int64
}

// perfectCrowd answers every question with the ground truth, whichever
// worker draws it and whatever else shares its HIT.
func perfectCrowd(seed int64) crowd.Config {
	return crowd.Config{Seed: seed, Workers: 200, MeanSkill: 1, SkillStd: 1e-12,
		SpamFraction: 1e-12, AbandonRate: 1e-12, BatchPenalty: 1e-12}
}

// runClaim runs one side on a fresh engine and reads its figures once
// every query is over and the crowd has gone quiet.
func runClaim(t *testing.T, side claimSide, seed int64) claimRun {
	t.Helper()
	ds := side.data()
	cfg := side.cfg
	cfg.Oracle = ds.Oracle
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A store journals for itself; elsewhere a recorder keeps the
	// records for the journal hash.
	journal := &journalRecorder{}
	if cfg.StorePath == "" {
		e.Manager().SetJournal(journal)
	}
	for _, tab := range ds.Tables {
		if err := e.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Define(side.tasks); err != nil {
		t.Fatal(err)
	}
	if side.pace > 0 {
		e.Clock().SetPace(side.pace)
	}

	n := len(side.stmts)
	rows := make([][]string, n)
	errs := make([]error, n)
	postedAtCancel := -1
	run := func(i int) {
		st := side.stmts[i]
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rs, err := e.Query(ctx, st.sql, st.opts...)
		if err != nil {
			errs[i] = err
			return
		}
		defer rs.Close()
		for rs.Next() {
			vals := rs.Tuple().Values
			parts := make([]string, len(vals))
			for k, v := range vals {
				parts[k] = v.String()
			}
			rows[i] = append(rows[i], strings.Join(parts, " | "))
			if len(rows[i]) == st.cancelAfter {
				cancel()
			}
		}
		if st.cancelAfter > 0 {
			// The cursor ends only after the scope was canceled: from
			// here on, a posted HIT is money spent on a dead query.
			postedAtCancel = e.Marketplace().Stats().HITsPosted
			if len(rows[i]) > st.cancelAfter {
				rows[i] = rows[i][:st.cancelAfter]
			}
		}
		if err := rs.Err(); err != nil && !(st.cancelAfter > 0 && errors.Is(err, ErrCanceled)) {
			errs[i] = err
		}
	}
	if side.concurrent {
		var wg sync.WaitGroup
		for i := range side.stmts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range side.stmts {
			run(i)
		}
	}
	e.Clock().SetPace(0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", side.stmts[i].sql, err)
		}
	}
	for _, h := range e.Queries() {
		waitFor(t, "every operator is done", func() bool { return allOpsDone(h) })
	}
	waitQuiesce(t, e)

	r := claimRun{Rows: make([]uint64, n), rows: rows, Extra: map[string]int64{}}
	for i, got := range rows {
		canon := got
		if !strings.Contains(strings.ToUpper(side.stmts[i].sql), "ORDER BY") {
			canon = append([]string(nil), got...)
			sort.Strings(canon)
		}
		h := fnv.New64a()
		for _, line := range canon {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		r.Rows[i] = h.Sum64()
	}
	if postedAtCancel >= 0 {
		time.Sleep(10 * time.Millisecond)
		r.Extra["hits_after_cancel"] = int64(e.Marketplace().Stats().HITsPosted - postedAtCancel)
	}
	var st mturk.Stats
	if rt := e.Router(); rt != nil {
		st = rt.Stats()
		counts, saved := rt.Counts()
		r.ByBackend = counts
		r.Extra["routed_saved_cents"] = int64(saved)
	} else {
		st = e.Marketplace().Stats()
		r.ByBackend = map[string]int64{"sim": int64(st.HITsPosted)}
	}
	r.HITs, r.Assignments = st.HITsPosted, st.AssignmentsCompleted
	r.Spent = e.Manager().Account().Spent()
	var sunk budget.Cents
	for _, h := range e.Queries() {
		sunk += h.SunkCents()
	}
	r.Drift = sunk - r.Spent
	r.Makespan = e.Clock().Now()
	h := fnv.New64a()
	journal.mu.Lock()
	for _, rec := range journal.recs {
		fmt.Fprintf(h, "%d %q %q %q %q %q %t %v %v %d %d\n",
			rec.Kind, rec.Task, rec.Side, rec.Worker, rec.Args, rec.Answers, rec.Pass, rec.X, rec.Y, rec.N, rec.M)
	}
	journal.mu.Unlock()
	r.Journal = h.Sum64()
	if side.read != nil {
		side.read(e, &r)
	}
	return r
}

// sameWork reports whether two runs gave the same rows and bought the
// same crowd work: spend, HITs, assignments, HITs per backend and
// ledger drift.
func sameWork(a, b claimRun) bool {
	return reflect.DeepEqual(a.Rows, b.Rows) && a.Spent == b.Spent && a.HITs == b.HITs &&
		a.Assignments == b.Assignments && reflect.DeepEqual(a.ByBackend, b.ByBackend) &&
		a.Drift == b.Drift
}

// sameCrowd is sameWork at the same makespan and journal: the crowd
// answered in the same order at the same virtual times.
func sameCrowd(a, b claimRun) bool {
	return sameWork(a, b) && a.Makespan == b.Makespan && a.Journal == b.Journal
}

// sameRows reports whether two runs gave the same rows.
func sameRows(a, b claimRun) bool { return reflect.DeepEqual(a.Rows, b.Rows) }

// engineClaim is one claim about the engine as users run it: sides
// built per seed, run on fresh engines, and checked against each other.
type engineClaim struct {
	name  string
	sides func(t *testing.T, seed int64) []claimSide
	check func(t *testing.T, runs []claimRun)
	// repeats compares the first side's rerun with its first run; nil
	// asks every figure to repeat exactly.
	repeats func(a, b claimRun) bool
}

// photoData returns a fresh n-photo dataset per call.
func photoData(n int, seed int64) func() workload.Dataset {
	return func() workload.Dataset { return workload.Photos(n, 0.5, 0.6, seed) }
}

// tenantData builds one photo table per tenant query, with keys that
// never collide across tenants, so neither the task cache nor a shared
// HIT can carry one tenant's answer into another's rows.
func tenantData(tenants, perTenant int, seed int64) func() workload.Dataset {
	return func() workload.Dataset {
		rng := rand.New(rand.NewSource(seed))
		schema := relation.MustSchema(relation.Column{Name: "img", Kind: relation.KindImage})
		var ds workload.Dataset
		for q := 0; q < tenants; q++ {
			tab := relation.NewTable(fmt.Sprintf("tenant%03d", q), schema)
			for j := 0; j < perTenant; j++ {
				subject := "toaster"
				if rng.Float64() < 0.5 {
					subject = "feline"
				}
				_ = tab.InsertValues(relation.NewImage(fmt.Sprintf("t%03d-photo%03d-%s.png", q, j, subject)))
			}
			ds.Tables = append(ds.Tables, tab)
		}
		ds.Oracle = crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
			return relation.NewBool(len(args) > 0 && strings.Contains(args[0].Str(), "feline"))
		})
		return ds
	}
}

// claimCascade is the paper's two-filter query over a photos table.
const claimCascade = `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`

// claimTenantTask is the one filter every tenant query applies.
const claimTenantTask = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
  Batch: 5
`

// claimRoutedTasks prices the cascade's filters at 2¢ a HIT; the
// routed side fills the slot with a pin of the first to the LLM crowd,
// which quotes 1¢.
const claimRoutedTasks = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %%s", photo
  Response: YesNo
  Batch: 5
  Price: 2
  %s

TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %%s", photo
  Response: YesNo
  Batch: 5
  Price: 2
`

// claimJoinTasks is the celebrity join's feature filter and join task;
// the slots take the filter's batch size and the join's PreFilter:
// line.
const claimJoinTasks = `
TASK isCeleb(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a public figure? %%s", photo
  Response: YesNo
  Batch: %d

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
  %s
`

const claimJoin = `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`

// claimStreamTask asks one photo per HIT of one worker, so HITs finish
// one at a time in input order.
const claimStreamTask = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
  Assignments: 1
  Batch: 1
`

// readPairs records the join pairs asked of the crowd and whether the
// plan kept a pre-filter stage.
func readPairs(e *Engine, r *claimRun) {
	r.Extra["pairs"] = e.Manager().StatsFor("sameperson").Submitted
	for _, h := range e.Queries() {
		if strings.Contains(plan.Explain(h.Plan), "PreFilter(isCeleb") {
			r.Extra["prefilter_plans"]++
		}
	}
}

// readRank records the one sort's comparison HITs.
func readRank(e *Engine, r *claimRun) {
	qs := e.Queries()
	r.Extra["compare_hits"] = int64(qs[len(qs)-1].Exec.RankStats()[0].CompareHITs)
}

// forceRank runs every sort with strategy s over groups of five.
func forceRank(s rank.Strategy) Config {
	return Config{Exec: exec.Config{RankStrategy: func(v *plan.Rank, n int) rank.Decision {
		return rank.Decision{Strategy: s, GroupSize: 5, TopK: v.TopK, Desc: v.Desc}
	}}}
}

// engineClaims are the claims that each need two or more engine runs
// to show. Tests that assert a claim on one engine stay where they
// are: TestQueryCancelMidStream and TestRowsStreamBeforeCompletion
// (streaming), TestEngineWarmStart (warm start), TestPlanCacheOptOut
// (plan cache) and TestEngineRankTopKPushdown (sort).
func engineClaims() []engineClaim {
	return []engineClaim{
		{
			// Concurrent queries under an admission cap co-batch their
			// partial HITs when they opt into sharing. Packing depends on
			// how the queries interleave, so only rows and the ledger
			// repeat.
			name: "sharing saves HITs at identical rows",
			sides: func(t *testing.T, seed int64) []claimSide {
				side := func(share bool) claimSide {
					s := claimSide{cfg: Config{Crowd: perfectCrowd(seed), MaxInflightHITs: 8},
						data: tenantData(30, 6, seed), tasks: claimTenantTask, concurrent: true, pace: 1e-4}
					for q := 0; q < 30; q++ {
						s.stmts = append(s.stmts, claimStmt{sql: fmt.Sprintf("SELECT img FROM tenant%03d WHERE isCat(img)", q),
							opts: []QueryOption{WithSharedBatching(share)}})
					}
					return s
				}
				return []claimSide{side(true), side(false)}
			},
			check: func(t *testing.T, runs []claimRun) {
				on, off := runs[0], runs[1]
				if !sameRows(on, off) {
					t.Errorf("sharing changed the rows: %x vs %x", on.Rows, off.Rows)
				}
				if on.HITs >= off.HITs {
					t.Errorf("sharing posted %d HITs, unshared %d", on.HITs, off.HITs)
				}
				if on.Drift != 0 || off.Drift != 0 {
					t.Errorf("ledger drift: %v shared, %v unshared", on.Drift, off.Drift)
				}
			},
			repeats: func(a, b claimRun) bool { return sameRows(a, b) && a.Drift == b.Drift },
		},
		{
			// The cascade's first filter served by the LLM crowd at half
			// the human price, the second by the simulated marketplace.
			name: "routing saves cents at identical rows",
			sides: func(t *testing.T, seed int64) []claimSide {
				routed := claimSide{cfg: Config{Crowd: perfectCrowd(seed), Backends: &BackendsConfig{
					LLM: backend.LLMConfig{Model: catModel, PriceCents: 1}}},
					data: photoData(60, seed), tasks: fmt.Sprintf(claimRoutedTasks, "Backend: llm"),
					stmts: []claimStmt{{sql: claimCascade}}}
				sim := routed
				sim.cfg = Config{Crowd: perfectCrowd(seed)}
				sim.tasks = fmt.Sprintf(claimRoutedTasks, "")
				return []claimSide{routed, sim}
			},
			check: func(t *testing.T, runs []claimRun) {
				routed, sim := runs[0], runs[1]
				if !sameRows(routed, sim) {
					t.Errorf("routing changed the rows: %x vs %x", routed.Rows, sim.Rows)
				}
				if routed.ByBackend["llm"] == 0 || routed.ByBackend["sim"] == 0 {
					t.Errorf("not a hybrid: HITs per backend %v", routed.ByBackend)
				}
				if routed.Spent >= sim.Spent || routed.Extra["routed_saved_cents"] <= 0 {
					t.Errorf("routed spent %v (booked saving %d¢), sim-only %v",
						routed.Spent, routed.Extra["routed_saved_cents"], sim.Spent)
				}
			},
		},
		{
			// EM stops each HIT at two agreeing votes where majority buys
			// the cap of three.
			name: "adaptive inference buys fewer assignments at identical rows",
			sides: func(t *testing.T, seed int64) []claimSide {
				em := claimSide{cfg: Config{Crowd: perfectCrowd(seed), Inference: &InferenceConfig{Method: "em"}},
					data: photoData(60, seed), tasks: crowdPathFilters, stmts: []claimStmt{{sql: claimCascade}},
					read: func(e *Engine, r *claimRun) {
						r.Extra["infer_saved_cents"] = int64(e.Manager().InferenceStats().SavedCents)
					}}
				majority := em
				majority.cfg = Config{Crowd: perfectCrowd(seed)}
				return []claimSide{em, majority}
			},
			check: func(t *testing.T, runs []claimRun) {
				em, majority := runs[0], runs[1]
				if !sameRows(em, majority) {
					t.Errorf("EM changed the rows: %x vs %x", em.Rows, majority.Rows)
				}
				if em.Assignments >= majority.Assignments || em.Spent >= majority.Spent || em.Extra["infer_saved_cents"] <= 0 {
					t.Errorf("EM bought %d assignments for %v (booked saving %d¢), majority %d for %v",
						em.Assignments, em.Spent, em.Extra["infer_saved_cents"], majority.Assignments, majority.Spent)
				}
			},
		},
		{
			// On a noisy crowd, through the EM path that extends HITs.
			name: "tracing changes nothing the crowd sees",
			sides: func(t *testing.T, seed int64) []claimSide {
				traced := claimSide{cfg: Config{Crowd: crowd.Config{Seed: seed}, Trace: true,
					Inference: &InferenceConfig{Method: "em"}},
					data: photoData(60, seed), tasks: crowdPathEM + crowdPathFilters[strings.Index(crowdPathFilters, "TASK isOutdoor"):],
					stmts: []claimStmt{{sql: claimCascade}, {sql: `SELECT id FROM photos WHERE id <= 30 AND isCat(img)`}},
					read: func(e *Engine, r *claimRun) {
						for _, h := range e.Queries() {
							if e.QueryTrace(h.ID) != nil {
								r.Extra["traced_queries"]++
							}
						}
					}}
				plain := traced
				plain.cfg.Trace = false
				return []claimSide{traced, plain}
			},
			check: func(t *testing.T, runs []claimRun) {
				on, off := runs[0], runs[1]
				if !sameCrowd(on, off) {
					t.Errorf("tracing changed the run:\n on  %+v\n off %+v", on, off)
				}
				if on.Extra["traced_queries"] != 2 || off.Extra["traced_queries"] != 0 {
					t.Errorf("traced queries: %d with tracing, %d without", on.Extra["traced_queries"], off.Extra["traced_queries"])
				}
			},
		},
		{
			// One shape at four literals: the cached side plans it once.
			// The later statements meet a partly filled task cache. Under
			// heavy load such a cascade has ended at another makespan,
			// with its journal in another order, on either side (see
			// CHANGES.md), so this case compares rows and crowd work.
			name: "plan cache changes nothing the crowd sees",
			sides: func(t *testing.T, seed int64) []claimSide {
				cached := claimSide{cfg: Config{Crowd: crowd.Config{Seed: seed}},
					data: photoData(60, seed), tasks: crowdPathFilters,
					read: func(e *Engine, r *claimRun) { r.Extra["plan_cache_hits"] = e.PlanCacheStats().Hits }}
				for _, bound := range []int{10, 25, 40, 60} {
					cached.stmts = append(cached.stmts, claimStmt{sql: fmt.Sprintf(
						`SELECT id, img FROM photos WHERE id <= %d AND isCat(img) AND isOutdoor(img)`, bound)})
				}
				uncached := cached
				uncached.cfg.PlanCacheSize = -1
				return []claimSide{cached, uncached}
			},
			check: func(t *testing.T, runs []claimRun) {
				on, off := runs[0], runs[1]
				if !sameWork(on, off) {
					t.Errorf("the plan cache changed the run:\n on  %+v\n off %+v", on, off)
				}
				if on.Extra["plan_cache_hits"] != 3 || off.Extra["plan_cache_hits"] != 0 {
					t.Errorf("plan cache hits: %d cached, %d uncached", on.Extra["plan_cache_hits"], off.Extra["plan_cache_hits"])
				}
			},
			repeats: func(a, b claimRun) bool { return sameWork(a, b) && reflect.DeepEqual(a.Extra, b.Extra) },
		},
		{
			// The planner applies PreFilter: only with adaptive joins on.
			// Its run-time re-check is pinned to keep the filter, and the
			// crowd is perfect, so the rows and the pairs asked do not
			// depend on how the two filter stages interleave; the
			// filter's HIT count does, so spend does not repeat. The third
			// side is a join too small for a 1-item-per-HIT filter to pay
			// for itself.
			name: "a pre-filter pays for fewer join pairs at identical rows",
			sides: func(t *testing.T, seed int64) []claimSide {
				keep := func(*plan.PreFilter, int) bool { return true }
				cfg := Config{Crowd: perfectCrowd(seed), AdaptiveJoins: true, Exec: exec.Config{PreFilterKeep: keep}}
				celebs := func(nSpotted int) func() workload.Dataset {
					return func() workload.Dataset { return workload.Celebrities(10, nSpotted, 0.2, seed) }
				}
				stmts := []claimStmt{{sql: claimJoin}}
				return []claimSide{
					{cfg: cfg, data: celebs(100), tasks: fmt.Sprintf(claimJoinTasks, 5, "PreFilter: isCeleb"), stmts: stmts, read: readPairs},
					{cfg: cfg, data: celebs(100), tasks: fmt.Sprintf(claimJoinTasks, 5, ""), stmts: stmts, read: readPairs},
					{cfg: cfg, data: celebs(15), tasks: fmt.Sprintf(claimJoinTasks, 1, "PreFilter: isCeleb"), stmts: stmts, read: readPairs},
				}
			},
			check: func(t *testing.T, runs []claimRun) {
				pre, full, small := runs[0], runs[1], runs[2]
				if !sameRows(pre, full) {
					t.Errorf("the pre-filter changed the matches: %x vs %x", pre.Rows, full.Rows)
				}
				if pre.Extra["prefilter_plans"] != 1 || full.Extra["pairs"] != 10*100 || pre.Extra["pairs"] >= full.Extra["pairs"] {
					t.Errorf("pre-filtered join (planned %d times) asked %d pairs, the plain join %d of 1000",
						pre.Extra["prefilter_plans"], pre.Extra["pairs"], full.Extra["pairs"])
				}
				if pre.Spent >= full.Spent {
					t.Errorf("pre-filtered join spent %v, the plain join %v", pre.Spent, full.Spent)
				}
				if small.Extra["prefilter_plans"] != 0 || small.Extra["pairs"] != 10*15 {
					t.Errorf("the decider kept a filter that does not pay: planned %d times, %d of 150 pairs asked",
						small.Extra["prefilter_plans"], small.Extra["pairs"])
				}
			},
			repeats: func(a, b claimRun) bool { return sameRows(a, b) && reflect.DeepEqual(a.Extra, b.Extra) },
		},
		{
			// A cold run fills a store; a warm run over it replays it.
			name: "a warm start pays less at identical rows",
			sides: func(t *testing.T, seed int64) []claimSide {
				cold := claimSide{cfg: Config{Crowd: perfectCrowd(seed), StorePath: t.TempDir()},
					data: photoData(60, seed), tasks: crowdPathFilters, stmts: []claimStmt{{sql: claimCascade}},
					read: func(e *Engine, r *claimRun) {
						for _, ts := range e.Manager().Stats() {
							r.Extra["questions"] += ts.Submitted
							r.Extra["cache_hits"] += ts.CacheHits
						}
						r.Extra["replayed_answers"] = int64(e.WarmStart().CacheEntries)
					}}
				return []claimSide{cold, cold}
			},
			check: func(t *testing.T, runs []claimRun) {
				cold, warm := runs[0], runs[1]
				if !sameRows(cold, warm) {
					t.Errorf("the warm run changed the rows: %x vs %x", cold.Rows, warm.Rows)
				}
				if cold.Extra["replayed_answers"] != 0 || warm.Extra["replayed_answers"] == 0 {
					t.Errorf("replayed answers: %d cold, %d warm", cold.Extra["replayed_answers"], warm.Extra["replayed_answers"])
				}
				if warm.HITs >= cold.HITs {
					t.Errorf("warm run posted %d HITs, cold %d", warm.HITs, cold.HITs)
				}
				if 2*warm.Extra["cache_hits"] < warm.Extra["questions"] {
					t.Errorf("warm run answered %d of %d questions from the store", warm.Extra["cache_hits"], warm.Extra["questions"])
				}
			},
		},
		{
			// Comparison sorts over groups of five: full ordering, top 4
			// (the tournament), top 5 (at the group size, where the
			// tournament cannot engage) and rate-then-refine.
			name: "sort strategies pay what they promise",
			sides: func(t *testing.T, seed int64) []claimSide {
				data := func() workload.Dataset {
					ds := workload.RankItems(30, 9, "rateSq", seed)
					ds.Oracle = workload.Combine(ds.Oracle, workload.OrderOracle(ds.Tables[0], "orderSq"))
					return ds
				}
				sorted := `SELECT img, truth FROM items ORDER BY rateSq(img) DESC`
				side := func(s rank.Strategy, sql string) claimSide {
					cfg := forceRank(s)
					cfg.Crowd = perfectCrowd(seed)
					return claimSide{cfg: cfg, data: data, tasks: rankTaskSrc, stmts: []claimStmt{{sql: sql}}, read: readRank}
				}
				return []claimSide{
					side(rank.StrategyCompare, sorted),
					side(rank.StrategyCompare, sorted+" LIMIT 4"),
					side(rank.StrategyCompare, sorted+" LIMIT 5"),
					side(rank.StrategyHybrid, sorted),
				}
			},
			check: func(t *testing.T, runs []claimRun) {
				full, top4, top5, hybrid := runs[0], runs[1], runs[2], runs[3]
				if len(full.rows[0]) != 30 {
					t.Errorf("full ordering returned %d of 30 items", len(full.rows[0]))
				}
				if n := full.Extra["compare_hits"]; n == 0 || n != int64(rank.CompareHITCount(30, 5, 0)) {
					t.Errorf("full ordering paid %d comparison HITs, want %d", n, rank.CompareHITCount(30, 5, 0))
				}
				if top4.Extra["compare_hits"] >= full.Extra["compare_hits"] {
					t.Errorf("top-4 paid %d comparison HITs, full ordering %d", top4.Extra["compare_hits"], full.Extra["compare_hits"])
				}
				if top5.Extra["compare_hits"] != full.Extra["compare_hits"] {
					t.Errorf("top-5 over groups of 5 paid %d comparison HITs, want full ordering's %d",
						top5.Extra["compare_hits"], full.Extra["compare_hits"])
				}
				for _, top := range []claimRun{top4, top5} {
					if k := len(top.rows[0]); !reflect.DeepEqual(top.rows[0], full.rows[0][:k]) {
						t.Errorf("top-%d rows %v are not full ordering's first %d %v", k, top.rows[0], k, full.rows[0][:k])
					}
				}
				if hybrid.HITs >= full.HITs || !sameRows(hybrid, full) {
					t.Errorf("hybrid paid %d HITs for order %x, compare-only %d for %x", hybrid.HITs, hybrid.Rows, full.HITs, full.Rows)
				}
			},
		},
		{
			// A grid join and a top-4 comparison sort behind a cap of two
			// HITs in flight: every grid and comparison HIT waits for a
			// slot, and the perfect crowd answers them as it would
			// uncapped.
			name: "an admission cap changes no join or sort result",
			sides: func(t *testing.T, seed int64) []claimSide {
				data := func() workload.Dataset {
					items, celebs := workload.RankItems(30, 9, "rateSq", seed), workload.Celebrities(10, 30, 0.2, seed)
					return workload.Dataset{Tables: append(items.Tables, celebs.Tables...), Oracle: workload.Combine(
						items.Oracle, workload.OrderOracle(items.Tables[0], "orderSq"), celebs.Oracle)}
				}
				capped := claimSide{cfg: forceRank(rank.StrategyCompare), data: data,
					tasks: rankTaskSrc + fmt.Sprintf(claimJoinTasks, 5, ""), read: readRank,
					stmts: []claimStmt{{sql: claimJoin}, {sql: `SELECT img, truth FROM items ORDER BY rateSq(img) DESC LIMIT 4`}}}
				capped.cfg.Crowd, capped.cfg.MaxInflightHITs = perfectCrowd(seed), 2
				uncapped := capped
				uncapped.cfg.MaxInflightHITs = 0
				return []claimSide{capped, uncapped}
			},
			check: func(t *testing.T, runs []claimRun) {
				capped, uncapped := runs[0], runs[1]
				if !sameWork(capped, uncapped) || capped.Extra["compare_hits"] != uncapped.Extra["compare_hits"] {
					t.Errorf("the cap changed the run:\n capped   %+v\n uncapped %+v", capped, uncapped)
				}
				if capped.Extra["compare_hits"] <= 2 || capped.HITs-int(capped.Extra["compare_hits"]) <= 2 {
					t.Errorf("the sort (%d comparison HITs) or the join (%d HITs) never queued behind the cap",
						capped.Extra["compare_hits"], capped.HITs-int(capped.Extra["compare_hits"]))
				}
			},
			repeats: sameCrowd,
		},
		{
			// One worker answers one photo per HIT, and at most eight
			// photos are in flight, so rows stream while later HITs are
			// still to be posted. Cancellation lands at a wall-time
			// moment, so only the rows it kept repeat.
			name: "streaming cancels cleanly with a repeatable prefix",
			sides: func(t *testing.T, seed int64) []claimSide {
				one := crowd.Config{Seed: seed, Workers: 1, MeanSkill: 1, SkillStd: 1e-12,
					SpamFraction: 1e-12, AbandonRate: 1e-12, BatchPenalty: 1e-12}
				canceled := claimSide{cfg: Config{Crowd: one, Exec: exec.Config{FilterWindow: 8}},
					data: photoData(200, seed), tasks: claimStreamTask,
					stmts: []claimStmt{{sql: `SELECT img FROM photos WHERE isCat(img)`, cancelAfter: 20}}, pace: 2e-5,
					read: func(e *Engine, r *claimRun) {
						if at, ok := e.Queries()[0].Exec.FirstRowAt(); ok && at < e.Clock().Now() {
							r.Extra["first_row_before_end"] = 1
						}
					}}
				full := canceled
				full.stmts = []claimStmt{{sql: canceled.stmts[0].sql}}
				return []claimSide{canceled, full}
			},
			check: func(t *testing.T, runs []claimRun) {
				canceled, full := runs[0], runs[1]
				if len(canceled.rows[0]) != 20 || !reflect.DeepEqual(canceled.rows[0], full.rows[0][:20]) {
					t.Errorf("canceled prefix %v is not the full run's first 20 rows", canceled.rows[0])
				}
				if n := canceled.Extra["hits_after_cancel"]; n != 0 {
					t.Errorf("%d HITs posted after cancellation", n)
				}
				if full.Extra["first_row_before_end"] != 1 {
					t.Error("the first row did not arrive before the last HIT completed")
				}
			},
			repeats: func(a, b claimRun) bool { return reflect.DeepEqual(a.rows, b.rows) },
		},
	}
}

// TestEngineClaims proves, through Engine.Query on fresh engines, each
// claim the engine makes about two or more ways of running the same
// SQL: sharing, routing, adaptive inference, tracing, the plan cache,
// join pre-filtering, warm starts, sort strategies, the admission cap
// and streaming cancellation. Each case runs every side at seeds 1 and 2, checks the
// sides against each other, and reruns its first side to check that it
// repeats.
func TestEngineClaims(t *testing.T) {
	for _, c := range engineClaims() {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				sides := c.sides(t, seed)
				runs := make([]claimRun, len(sides))
				for i, side := range sides {
					runs[i] = runClaim(t, side, seed)
				}
				t.Logf("seed %d: %+v", seed, runs)
				c.check(t, runs)
				again := runClaim(t, c.sides(t, seed)[0], seed)
				same := c.repeats
				if same == nil {
					same = func(a, b claimRun) bool { return reflect.DeepEqual(a, b) }
				}
				if !same(runs[0], again) {
					t.Errorf("seed %d: the first side did not repeat:\n first %+v\n again %+v", seed, runs[0], again)
				}
			}
		})
	}
}
