package core

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/internal/exec"
	"repro/internal/mturk"
	"repro/internal/plan"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// outdoorTask is the second filter of the paper's two-filter cascade.
const outdoorTask = `
TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", photo
  Response: YesNo
`

// observed is everything a caller can read from one query's handle.
type observed struct {
	Ops        []exec.OpStats
	Joins      []exec.JoinReduction
	Ranks      []exec.RankStat
	Peak       int64
	Err        string
	Errors     []string
	ErrorCount int64
	Canceled   bool
	FirstRow   mturk.VirtualTime
	HasFirst   bool
	Ended      mturk.VirtualTime
	HasEnded   bool
	Result     *relation.Table
	Results    int
	Closed     bool
	Done       bool
	Sunk       budget.Cents
}

func observe(h *QueryHandle) observed {
	q := h.Exec
	o := observed{
		Ops: q.OpStats(), Joins: q.JoinReductions(), Ranks: q.RankStats(),
		Peak: q.PeakTuplesResident(), Err: fmt.Sprint(q.Err()),
		ErrorCount: q.ErrorCount(), Canceled: q.Canceled(),
		Result: q.Result(), Results: q.Result().Len(), Closed: q.Result().Closed(),
		Sunk: h.SunkCents(),
	}
	for _, err := range q.Errors() {
		o.Errors = append(o.Errors, err.Error())
	}
	o.FirstRow, o.HasFirst = q.FirstRowAt()
	o.Ended, o.HasEnded = q.EndedAt()
	select {
	case <-q.Done():
		o.Done = true
	default:
	}
	return o
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func allOpsDone(h *QueryHandle) bool {
	for _, op := range h.Exec.OpStats() {
		if !op.Done {
			return false
		}
	}
	return true
}

// engineWith builds a traced engine over tables, answering from oracle,
// with taskSrc plus extra task definitions.
func engineWith(t *testing.T, cfg Config, oracle crowd.Oracle, extra string, tables ...*relation.Table) *Engine {
	t.Helper()
	cfg.Oracle = oracle
	cfg.Trace = true
	if cfg.Crowd.Seed == 0 {
		cfg.Crowd = crowd.Config{Seed: 5, Workers: 200, MeanSkill: 0.97,
			SkillStd: 0.01, BatchPenalty: 1e-6, SpamFraction: 1e-12, AbandonRate: 1e-12}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for _, tab := range tables {
		if err := e.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Define(taskSrc + extra); err != nil {
		t.Fatal(err)
	}
	return e
}

func photosEngine(cfg Config, n int) func(*testing.T) *Engine {
	return func(t *testing.T) *Engine {
		ds := workload.Photos(n, 0.5, 0.6, 3)
		return engineWith(t, cfg, ds.Oracle, outdoorTask, ds.Tables...)
	}
}

// TestRetirementChangesNothingReadable runs one query of each shape and
// reads every accessor of its handle at three points: once the stream
// has ended and every operator reports done, after the query retired,
// and after the handle left the dashboard's window. All three must
// match. Meanwhile another goroutine renders the dashboard and reads
// every handle, so under -race the test also checks that retirement and
// eviction are safe against concurrent readers.
func TestRetirementChangesNothingReadable(t *testing.T) {
	celebs := workload.Celebrities(20, 200, 0.2, 6)
	items := workload.RankItems(12, 9, "rateSq", 3)
	cases := []struct {
		name        string
		engine      func(*testing.T) *Engine
		sql         string
		opts        []QueryOption
		cancelAfter int // cancel the context after this many rows; 0 never
		paced       bool
		canceled    bool
		joins       bool // the query reports join reductions
		ranks       bool // the query reports a crowd sort
	}{
		{name: "two-filter cascade", engine: photosEngine(Config{}, 30),
			sql: `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`},
		{name: "grouped filter", engine: photosEngine(Config{Exec: exec.Config{GroupFilters: true}}, 30),
			sql: `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`},
		{name: "pre-filtered adaptive join", engine: func(t *testing.T) *Engine {
			return engineWith(t, Config{AdaptiveJoins: true}, celebs.Oracle, "", celebs.Tables...)
		}, sql: `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`, joins: true},
		{name: "crowd sort with limit", engine: func(t *testing.T) *Engine {
			oracle := workload.Combine(items.Oracle, workload.OrderOracle(items.Tables[0], "orderSq"))
			return engineWith(t, Config{}, oracle, rankTaskSrc, items.Tables...)
		}, sql: `SELECT img, truth FROM items ORDER BY rateSq(img) DESC LIMIT 3`, ranks: true},
		{name: "aggregate", engine: photosEngine(Config{}, 30),
			sql: `SELECT isCat(img) AS cat, count() AS n FROM photos GROUP BY isCat(img)`},
		{name: "limit over a crowd filter", engine: photosEngine(Config{}, 100),
			sql: `SELECT id FROM photos WHERE isCat(img) LIMIT 2`},
		{name: "context cancel", engine: photosEngine(Config{Crowd: slowCrowd()}, 60),
			sql: `SELECT img FROM photos WHERE isCat(img)`, cancelAfter: 1, paced: true, canceled: true},
		{name: "budget exhausted", engine: photosEngine(Config{}, 30),
			sql: `SELECT img FROM photos WHERE isCat(img)`, opts: []QueryOption{WithBudget(5)}},
		{name: "deadline", engine: photosEngine(Config{Crowd: slowCrowd()}, 60),
			sql: `SELECT img FROM photos WHERE isCat(img)`, opts: []QueryOption{WithDeadline(10 * time.Minute)},
			canceled: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.engine(t)
			if _, err := e.LoadCSV("filler", strings.NewReader("id\n1\n")); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = e.Snapshot()
					for _, h := range e.Queries() {
						_ = h.Exec.OpStats()
						_ = h.SunkCents()
					}
				}
			}()
			defer func() {
				close(stop)
				readers.Wait()
			}()

			if tc.paced {
				e.Clock().SetPace(1e-4)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rows, err := e.Query(ctx, tc.sql, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for rows.Next() {
				if n++; n == tc.cancelAfter {
					cancel()
				}
			}
			e.Clock().SetPace(0)
			rows.Close()
			h := rows.Handle()
			if h.Canceled() != tc.canceled {
				t.Fatalf("canceled = %v, want %v (err %v)", h.Canceled(), tc.canceled, h.Err())
			}
			if h.Trace() == nil || h.Plan == nil {
				t.Fatal("a recent query has no trace or plan")
			}

			waitFor(t, "every operator reports done", func() bool { return allOpsDone(h) })
			atEnd := observe(h)
			if (len(atEnd.Joins) > 0) != tc.joins || (len(atEnd.Ranks) > 0) != tc.ranks {
				t.Fatalf("join reductions %v and sort reports %v, want joins %v and sorts %v",
					atEnd.Joins, atEnd.Ranks, tc.joins, tc.ranks)
			}
			waitFor(t, "the query retires", h.Exec.Retired)
			if got := observe(h); !reflect.DeepEqual(got, atEnd) {
				t.Fatalf("retirement changed the handle:\nbefore %+v\nafter  %+v", atEnd, got)
			}

			// Push the query out of the window: recentQueries finished
			// queries newer than it, then one more start.
			for i := 0; i <= recentQueries; i++ {
				fill, err := e.Query(context.Background(), `SELECT id FROM filler`)
				if err != nil {
					t.Fatal(err)
				}
				for fill.Next() {
				}
				fill.Close()
				waitFor(t, "a filler query retires", fill.Handle().Exec.Retired)
			}
			if h.Plan != nil || h.Trace() != nil || h.Explain() != "" || e.QueryTrace(h.ID) != nil {
				t.Fatal("a query outside the window kept its plan or trace")
			}
			if got := observe(h); !reflect.DeepEqual(got, atEnd) {
				t.Fatalf("leaving the window changed the handle:\nbefore %+v\nafter  %+v", atEnd, got)
			}
		})
	}
}

// TestDashboardWindowFoldsSavings runs more than a window's worth of
// crowd sorts and pre-filtered joins on one engine. The dashboard must
// list exactly the live queries and the last recentQueries finished
// ones, /trace/{id} must answer only for those, and the join and sort
// savings must equal what every handle's stats add up to, computed here
// the way the dashboard did before it folded old queries into totals.
func TestDashboardWindowFoldsSavings(t *testing.T) {
	celebs := workload.Celebrities(20, 200, 0.2, 6)
	items := workload.RankItems(8, 9, "rateSq", 3)
	photos := workload.Photos(10, 0.5, 0.6, 3)
	oracle := workload.Combine(celebs.Oracle, items.Oracle, photos.Oracle,
		workload.OrderOracle(items.Tables[0], "orderSq"))
	tables := append(append(append([]*relation.Table(nil), celebs.Tables...), items.Tables...), photos.Tables...)
	e := engineWith(t, Config{AdaptiveJoins: true}, oracle, rankTaskSrc, tables...)
	if _, err := e.LoadCSV("filler", strings.NewReader("id\n1\n")); err != nil {
		t.Fatal(err)
	}

	run := func(sql string) *QueryHandle {
		t.Helper()
		rows, err := e.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows.Close()
		waitFor(t, "the query retires", rows.Handle().Exec.Retired)
		return rows.Handle()
	}
	const join = `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`
	first := run(join)
	if !strings.Contains(plan.Explain(first.Plan), "PreFilter(isCeleb") {
		t.Fatalf("the join was not pre-filtered:\n%s", plan.Explain(first.Plan))
	}
	for i := 0; i < recentQueries; i++ {
		if i%2 == 0 {
			run(`SELECT img FROM items ORDER BY rateSq(img)`)
		} else {
			run(join)
		}
	}

	// One query stays live while local queries finish: holding the gate
	// keeps the clock from answering its HITs.
	gate := e.Clock().Gate()
	gate.Hold()
	held := true
	release := func() {
		if held {
			held = false
			gate.Release()
		}
	}
	defer release()
	live, err := e.Query(context.Background(), `SELECT id FROM photos WHERE isCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		run(`SELECT id FROM filler`)
	}
	snap := e.Snapshot()
	all := e.Queries()
	var finished []int
	for _, h := range all {
		if h != live.Handle() {
			finished = append(finished, h.ID)
		}
	}
	want := append([]int{live.Handle().ID}, finished[len(finished)-recentQueries:]...)
	sort.Ints(want)
	var got []int
	for _, qi := range snap.Queries {
		got = append(got, qi.ID)
	}
	release()
	for live.Next() {
	}
	live.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dashboard lists %v, want the live query and the last %d finished: %v", got, recentQueries, want)
	}

	srv := dashboard.NewHandler(e)
	for _, c := range []struct {
		id   int
		code int
	}{{first.ID, 404}, {all[len(all)-1].ID, 200}, {live.Handle().ID, 200}} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/trace/%d", c.id), nil))
		if rec.Code != c.code {
			t.Fatalf("/trace/%d answered %d, want %d", c.id, rec.Code, c.code)
		}
	}

	// The savings the dashboard computed from every query before it
	// kept a window: each handle's join reductions and sort reports,
	// priced at the current policies.
	policyFor := func(name string) (p taskmgr.Policy) {
		for _, def := range e.Tasks() {
			if def.Name == name {
				return e.Manager().PolicyFor(def)
			}
		}
		t.Fatalf("no task %q", name)
		return
	}
	lb, rb := e.cfg.Exec.JoinGrid()
	type savings struct {
		JoinPairsAvoided int64
		JoinSavedCents   budget.Cents
		SortCompareHITs  int64
		SortRateHITs     int64
		SortSavedCents   budget.Cents
	}
	var ref savings
	for _, h := range e.Queries() {
		for _, red := range h.Exec.JoinReductions() {
			ref.JoinPairsAvoided += red.PairsAvoided
			pol := policyFor(red.Task)
			perPair := float64(pol.PriceCents) * float64(pol.Assignments) / float64(lb*rb)
			ref.JoinSavedCents += budget.Cents(float64(red.PairsAvoided) * perPair)
		}
		for _, rs := range h.Exec.RankStats() {
			comparePol := policyFor("orderSq").Clamped()
			ratePol := policyFor("rateSq").Clamped()
			ref.SortCompareHITs += int64(rs.CompareHITs)
			if rs.RateAsks > 0 {
				ref.SortRateHITs += int64(rank.RateHITCount(rs.RateAsks, ratePol.BatchSize))
			}
			baseline := int64(rank.CompareHITCount(rs.Items, rs.GroupSize, 0))
			if avoided := baseline - int64(rs.CompareHITs); avoided > 0 {
				ref.SortSavedCents += budget.Cents(avoided) * budget.Cents(comparePol.PriceCents*int64(comparePol.Assignments))
			}
		}
	}
	s := e.Snapshot().Savings
	gotRef := savings{s.JoinPairsAvoided, s.JoinSavedCents, s.SortCompareHITs, s.SortRateHITs, s.SortSavedCents}
	if gotRef != ref {
		t.Fatalf("dashboard savings %+v, want %+v from every handle", gotRef, ref)
	}
	if ref.JoinPairsAvoided == 0 || ref.SortCompareHITs == 0 {
		t.Fatalf("the workload produced no join or sort savings to fold: %+v", ref)
	}
}
