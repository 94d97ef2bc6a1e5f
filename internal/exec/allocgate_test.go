package exec

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// TestAllocRegressionGate is the CI bench-smoke gate: it measures
// allocs/op for every suite pipeline and fails if any exceeds 2× the
// committed baseline in testdata/alloc_baseline.json. The baseline was
// captured from the iterator executor on the reference container; the 2×
// headroom absorbs runtime and platform jitter while still catching a
// reintroduced per-tuple allocation (which shows up as 5–30×).
func TestAllocRegressionGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts; gate runs in the non-race CI step")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/alloc_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]float64{}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	for _, c := range BenchSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			base, ok := baseline[c.Name]
			if !ok {
				t.Fatalf("no committed baseline for %s; add it to testdata/alloc_baseline.json", c.Name)
			}
			node, err := c.Plan()
			if err != nil {
				t.Fatal(err)
			}
			// Warm the tuple pool and the scheduler before measuring.
			if _, err := c.Run(node); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(5, func() {
				if _, err := c.Run(node); err != nil {
					t.Fatal(err)
				}
			})
			limit := 2 * base
			if got > limit {
				t.Errorf("%s allocs/op = %.0f, over the 2x gate (baseline %.0f, limit %.0f); if the growth is intentional, refresh testdata/alloc_baseline.json", c.Name, got, base, limit)
			}
			t.Logf("%s: %.0f allocs/op (baseline %.0f)", c.Name, got, base)
		})
	}
}

// TestCachedCascadeAllocsPerTuple: exec allocates per tuple, not per
// task call. Over a table whose every answer is cached, a cascade of c
// conjuncts that every tuple passes costs, per tuple, the task
// manager's c cache hits plus what exec spends on the tuple, and that
// last part is the same for one, two and three conjuncts.
func TestCachedCascadeAllocsPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts; gate runs in the non-race CI step")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	r := newExecRig(t, 0.99)
	script, err := qlang.Parse(execScript + `
TASK isBlue(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this photo blue? %s", photo
  Response: YesNo
`)
	if err != nil {
		t.Fatal(err)
	}
	r.script = script
	tasks := []string{"isCat", "isOutdoor", "isBlue"}
	const n = 200
	yes := cache.EncodeAnswers([]relation.Value{relation.NewBool(true)})
	rows := make([][]relation.Value, n)
	for i := range rows {
		rows[i] = []relation.Value{relation.NewImage(fmt.Sprintf("cat-out-%03d.png", i))}
		for _, task := range tasks {
			r.mgr.Cache().Put(cache.NewKey(task, rows[i]), yes)
		}
	}
	r.addTable(t, "photos", []relation.Column{{Name: "img", Kind: relation.KindImage}}, rows...)

	// What one cache hit costs the task manager, exec aside.
	def, _ := script.Task("isCat")
	done := func(taskmgr.Outcome) {}
	hit := testing.AllocsPerRun(100, func() {
		r.mgr.Submit(taskmgr.Request{Def: def, Args: rows[0], Done: done})
	})
	var own []float64 // exec's allocations per tuple, by conjunct count
	for c := 1; c <= len(tasks); c++ {
		conj := make([]string, c)
		for i := range conj {
			conj[i] = tasks[i] + "(img)"
		}
		stmt, err := qlang.ParseQuery("SELECT img FROM photos WHERE " + strings.Join(conj, " AND "))
		if err != nil {
			t.Fatal(err)
		}
		node, err := plan.Build(stmt, script, r.catalog)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(node, script, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			q, err := prog.Start(nil, Config{Mgr: r.mgr, Script: script})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(q.Wait()); got != n || q.ErrorCount() != 0 {
				t.Fatalf("%d conjuncts: %d rows, errors %v", c, got, q.Errors())
			}
		})
		own = append(own, allocs/n-float64(c)*hit)
		t.Logf("%d conjuncts: %.0f allocs/query, %.2f per tuple beside %d cache hits of %.0f", c, allocs, own[c-1], c, hit)
	}
	for c := 1; c < len(own); c++ {
		if d := own[c] - own[0]; d > 0.5 || d < -0.5 {
			t.Errorf("exec allocates %.2f per tuple at %d conjuncts and %.2f at 1; want the same whatever the count", own[c], c+1, own[0])
		}
	}
}
