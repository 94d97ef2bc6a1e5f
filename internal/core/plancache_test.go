package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dashboard"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/workload"
)

// localTable builds a plain int table the crowd never touches, so plan
// cache tests run without HIT nondeterminism.
func localTable(t *testing.T, e *Engine) {
	t.Helper()
	tab := relation.NewTable("nums", relation.MustSchema(
		relation.Column{Name: "v", Kind: relation.KindInt}))
	for i := int64(0); i < 20; i++ {
		if err := tab.InsertValues(relation.NewInt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
}

func collect(t *testing.T, e *Engine, sql string, opts ...QueryOption) []relation.Tuple {
	t.Helper()
	rows, err := e.Query(context.Background(), sql, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []relation.Tuple
	for rows.Next() {
		out = append(out, rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlanCacheHitWithDifferentLiterals is the core correctness claim:
// queries that differ only in constants share a cached template, and
// each still runs with its own constants.
func TestPlanCacheHitWithDifferentLiterals(t *testing.T) {
	e := newEngine(t, Config{}, workload.Companies(4, 3))
	localTable(t, e)

	a := collect(t, e, `SELECT v FROM nums WHERE v < 5`)
	b := collect(t, e, `SELECT v FROM nums WHERE v < 11`)
	c := collect(t, e, `SELECT v FROM nums WHERE v < 5`)
	if len(a) != 5 || len(c) != 5 {
		t.Fatalf("v<5 rows = %d then %d, want 5 and 5", len(a), len(c))
	}
	if len(b) != 11 {
		t.Fatalf("v<11 rows = %d, want 11 (cached template must re-bind the literal)", len(b))
	}
	st := e.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss then 2 hits", st)
	}
	if st.Invalidations != 0 {
		t.Fatalf("unexpected invalidations: %+v", st)
	}
}

// TestPlanCacheKeySeparatesShapes: different LIMITs and different
// operators must not share entries.
func TestPlanCacheKeySeparatesShapes(t *testing.T) {
	e := newEngine(t, Config{}, workload.Companies(4, 3))
	localTable(t, e)

	if got := collect(t, e, `SELECT v FROM nums LIMIT 3`); len(got) != 3 {
		t.Fatalf("limit 3 rows = %d", len(got))
	}
	if got := collect(t, e, `SELECT v FROM nums LIMIT 7`); len(got) != 7 {
		t.Fatalf("limit 7 rows = %d", len(got))
	}
	st := e.PlanCacheStats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want two misses (LIMIT operand is part of the key)", st)
	}
}

// TestPlanCacheOptOut: WithPlanCache(false) plans from scratch and
// leaves the counters untouched.
func TestPlanCacheOptOut(t *testing.T) {
	e := newEngine(t, Config{}, workload.Companies(4, 3))
	localTable(t, e)

	collect(t, e, `SELECT v FROM nums WHERE v < 5`, WithPlanCache(false))
	collect(t, e, `SELECT v FROM nums WHERE v < 5`, WithPlanCache(false))
	st := e.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want untouched cache under WithPlanCache(false)", st)
	}
}

// TestPlanCacheDisabledByConfig: PlanCacheSize < 0 turns the cache off
// engine-wide.
func TestPlanCacheDisabledByConfig(t *testing.T) {
	e := newEngine(t, Config{PlanCacheSize: -1}, workload.Companies(4, 3))
	localTable(t, e)
	collect(t, e, `SELECT v FROM nums WHERE v < 5`)
	collect(t, e, `SELECT v FROM nums WHERE v < 5`)
	if st := e.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Fatalf("stats = %+v, want all-zero with the cache disabled", st)
	}
}

// TestPlanCacheEpochInvalidation: registering a table orphans old
// entries — the same SQL replans under the new epoch.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	e := newEngine(t, Config{}, workload.Companies(4, 3))
	localTable(t, e)

	collect(t, e, `SELECT v FROM nums WHERE v < 5`)
	extra := relation.NewTable("extra", relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.KindInt}))
	if err := e.Register(extra); err != nil {
		t.Fatal(err)
	}
	collect(t, e, `SELECT v FROM nums WHERE v < 5`)
	st := e.PlanCacheStats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses across an epoch bump", st)
	}
}

// TestPlanCacheDecisionFlipInvalidates drives prepare and buildPlan
// directly with a controllable pre-filter decider standing in for the
// optimizer: when live statistics flip the decision vector a cached
// program baked in, the hit becomes an invalidation and the entry is
// recompiled under the new decisions.
func TestPlanCacheDecisionFlipInvalidates(t *testing.T) {
	ds := workload.Celebrities(6, 6, 0.5, 3)
	e := newEngine(t, Config{}, ds)

	const sql = `SELECT celebrities.name, spottedstars.id
FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`
	e.mu.Lock()
	script := e.script
	e.mu.Unlock()

	wrap := true
	decide := func(_, _ *qlang.TaskDef, _, _ int) plan.PreFilterDecision {
		return plan.PreFilterDecision{Left: wrap, Right: wrap}
	}

	// stored reports the program the cache holds for sql and the
	// pre-filter decisions it was compiled under.
	stored := func() (*exec.Program, []plan.PreFilterDecision) {
		key, _, err := planCacheKey(sql, atomic.LoadInt64(&e.planEpoch), true)
		if err != nil {
			t.Fatal(err)
		}
		entry := e.plans.lookup(key)
		return entry.prog, entry.decisions
	}
	build := func() *exec.Program {
		t.Helper()
		on := true
		p, err := e.prepare(sql, nil, queryOptions{adaptive: &on})
		if err != nil {
			t.Fatal(err)
		}
		prog, _, _, err := e.buildPlan(p, script, true, decide)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	first := build()
	if prog, ds := stored(); prog != first || len(ds) != 1 || ds[0] != (plan.PreFilterDecision{Left: true, Right: true}) {
		t.Fatalf("miss stored decisions %+v (its own program: %v), want both sides pre-filtered", ds, prog == first)
	}

	// Same stats regime: a clean hit runs the same program.
	if second := build(); second != first {
		t.Fatal("a hit under the same decisions recompiled")
	}

	// Statistics crossed the optimizer threshold: decisions flip, the
	// entry invalidates, and the program follows the live decider.
	wrap = false
	third := build()
	if prog, ds := stored(); third == first || prog != third || len(ds) != 1 || ds[0] != (plan.PreFilterDecision{}) {
		t.Fatalf("post-flip stored decisions %+v (recompiled: %v, stored: %v), want no pre-filter",
			ds, third != first, prog == third)
	}
	st := e.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 invalidation", st)
	}

	// The recompiled entry makes the next query a hit again.
	if fourth := build(); fourth != third {
		t.Fatal("the query after an invalidation did not run the recompiled program")
	}
	if st := e.PlanCacheStats(); st.Hits != 2 || st.Invalidations != 1 {
		t.Fatalf("stats after refresh = %+v, want 2 hits, 1 invalidation", st)
	}
}

// TestPlanCacheDashboardLine: the snapshot carries the counters and the
// rendered dashboard reports them.
func TestPlanCacheDashboardLine(t *testing.T) {
	e := newEngine(t, Config{}, workload.Companies(4, 3))
	localTable(t, e)
	collect(t, e, `SELECT v FROM nums WHERE v < 5`)
	collect(t, e, `SELECT v FROM nums WHERE v < 9`)

	snap := e.Snapshot()
	if snap.PlanCache.Hits != 1 || snap.PlanCache.Misses != 1 {
		t.Fatalf("snapshot plan cache = %+v, want 1 hit, 1 miss", snap.PlanCache)
	}
	rendered := dashboard.Render(snap)
	if !strings.Contains(rendered, "Plan cache: 1 hits, 0 invalidations") {
		t.Fatalf("dashboard missing plan-cache line:\n%s", rendered)
	}
}

// TestPlanCacheConcurrentHits runs one shape with different literals
// from two goroutines at once, 200 times each, on one engine: they share
// one compiled program, and each must see exactly its own rows, tagged
// with its own string literal.
func TestPlanCacheConcurrentHits(t *testing.T) {
	e := newEngine(t, Config{}, workload.Companies(4, 3))
	localTable(t, e)
	const runs = 200
	errs := make(chan error, 2)
	for _, tag := range []string{"a", "b"} {
		go func() {
			for i := 0; i < runs; i++ {
				lo := i % 10
				if tag == "b" {
					lo += 10
				}
				hi := lo + 1 + i%3
				rows, err := e.Query(context.Background(),
					fmt.Sprintf(`SELECT v, '%s' FROM nums WHERE v >= %d AND v < %d`, tag, lo, hi))
				if err != nil {
					errs <- err
					return
				}
				var got []string
				for rows.Next() {
					got = append(got, rows.Tuple().Values[0].String()+rows.Tuple().Values[1].String())
				}
				rows.Close()
				var want []string
				for v := lo; v < hi && v < 20; v++ {
					want = append(want, fmt.Sprintf("%d%s", v, tag))
				}
				if !slices.Equal(got, want) {
					errs <- fmt.Errorf("client %s, [%d,%d): rows %v, want %v", tag, lo, hi, got, want)
					return
				}
			}
			errs <- nil
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := e.PlanCacheStats(); st.Hits+st.Misses != 2*runs || st.Hits < 2*runs-2 {
		t.Fatalf("stats = %+v, want every query but the first of each client at most to hit", st)
	}
}
