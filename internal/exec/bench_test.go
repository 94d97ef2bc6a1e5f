package exec

import (
	"testing"

	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/qlang"
)

// The benchmark pipelines live in benchsuite.go (non-test) so the
// alloc-regression gate and `qurk-bench -only EXEC` measure the exact
// plans benchmarked here. Each Benchmark* below drives one suite case.
func benchCase(b *testing.B, name string) {
	b.Helper()
	for _, c := range BenchSuite() {
		if c.Name != name {
			continue
		}
		node, err := c.Plan()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Run(node); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("no bench case named %q", name)
}

// BenchmarkFilterPipeline: Project(Filter(Scan)) with a local predicate
// over 4096 rows, half passing.
func BenchmarkFilterPipeline(b *testing.B) { benchCase(b, "FilterPipeline") }

// BenchmarkJoinGrid: a local equi-join evaluated through the join
// operator's residual path (64×64 pairs, 64 matches).
func BenchmarkJoinGrid(b *testing.B) { benchCase(b, "JoinGrid") }

// benchCaseTraced is benchCase with tracing armed: each iteration runs
// under a fresh query root span (released after the run, so the tracer's
// pool recycles the tree). Compare against the untraced Benchmark* twin
// to measure the tracing overhead — the acceptance bar is <5% ns/op.
func benchCaseTraced(b *testing.B, name string) {
	b.Helper()
	for _, c := range BenchSuite() {
		if c.Name != name {
			continue
		}
		node, err := c.Plan()
		if err != nil {
			b.Fatal(err)
		}
		tr := obs.New(func() mturk.VirtualTime { return 0 })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root := tr.StartRoot(obs.KindQuery, c.SQL)
			q, err := Start(node, Config{Script: &qlang.Script{}, Trace: root})
			if err != nil {
				b.Fatal(err)
			}
			if rows := q.Wait(); len(rows) != c.WantRows {
				b.Fatalf("%s traced: rows = %d, want %d", c.Name, len(rows), c.WantRows)
			}
			tr.Release(root)
		}
		return
	}
	b.Fatalf("no bench case named %q", name)
}

// BenchmarkFilterPipelineTraced / BenchmarkJoinGridTraced: the two
// acceptance pipelines with a live span tree per run.
func BenchmarkFilterPipelineTraced(b *testing.B) { benchCaseTraced(b, "FilterPipeline") }
func BenchmarkJoinGridTraced(b *testing.B)       { benchCaseTraced(b, "JoinGrid") }

// BenchmarkDistinct: 4096 rows hashing down to 256 distinct values.
func BenchmarkDistinct(b *testing.B) { benchCase(b, "Distinct") }

// BenchmarkOrderBy: a local sort of 4096 shuffled rows.
func BenchmarkOrderBy(b *testing.B) { benchCase(b, "OrderBy") }

// TestBenchSuitePlans sanity-checks that every suite case plans and runs
// with the expected cardinality, so the gate and qurk-bench never chase
// a broken pipeline definition.
func TestBenchSuitePlans(t *testing.T) {
	for _, c := range BenchSuite() {
		node, err := c.Plan()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if _, err := c.Run(node); err != nil {
			t.Fatal(err)
		}
		_ = plan.Explain(node)
	}
}
