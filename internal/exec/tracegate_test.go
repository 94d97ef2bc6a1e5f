package exec

import (
	"testing"

	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/qlang"
)

// TestTraceAllocGate is the observability twin of TestAllocRegressionGate:
// it measures allocs/op for the two acceptance pipelines with tracing
// disabled and enabled in the same process. The disabled path must cost
// exactly what the plain executor costs — Config.Trace nil IS the plain
// path (every hook is a nil check), which TestAllocRegressionGate pins
// against the committed baseline — and the enabled path may add only a
// constant number of allocations per query (one pooled span per plan
// node plus end-of-run stamping), never O(rows).
func TestTraceAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts; gate runs in the non-race CI step")
	}
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	for _, name := range []string{"FilterPipeline", "JoinGrid"} {
		t.Run(name, func(t *testing.T) {
			var bc BenchCase
			for _, c := range BenchSuite() {
				if c.Name == name {
					bc = c
				}
			}
			node, err := bc.Plan()
			if err != nil {
				t.Fatal(err)
			}
			// Warm the tuple pool and the scheduler before measuring.
			if _, err := bc.Run(node); err != nil {
				t.Fatal(err)
			}
			off := testing.AllocsPerRun(5, func() {
				if _, err := bc.Run(node); err != nil {
					t.Fatal(err)
				}
			})

			tr := obs.New(func() mturk.VirtualTime { return 0 })
			runTraced := func() {
				root := tr.StartRoot(obs.KindQuery, bc.SQL)
				q, err := Start(node, Config{Script: &qlang.Script{}, Trace: root})
				if err != nil {
					t.Fatal(err)
				}
				if rows := q.Wait(); len(rows) != bc.WantRows {
					t.Fatalf("traced: rows = %d, want %d", len(rows), bc.WantRows)
				}
				tr.Release(root)
			}
			runTraced() // warm the span pool too
			on := testing.AllocsPerRun(5, func() { runTraced() })

			// The pipelines run thousands of rows; a per-tuple tracing
			// allocation would blow past this constant budget immediately.
			const spanBudget = 64
			if on > off+spanBudget {
				t.Errorf("%s: tracing added %.0f allocs/op (off %.0f, on %.0f) — over the constant budget of %d, so something traces per tuple", name, on-off, off, on, spanBudget)
			}
			t.Logf("%s: allocs/op off=%.0f on=%.0f (+%.0f)", name, off, on, on-off)
		})
	}
}
