package experiments

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/workload"
)

// TestExperimentsDeterministic reruns representative experiments with
// the same seed and requires byte-identical result tables: workload
// generation, crowd noise, batching, the marketplace and the virtual
// clock are all pure functions of the seed. The engine's
// clock pump waits on its quiescence gate until every executor
// goroutine is parked (and experiments that submit to the task manager
// directly hold the gate while they do), so scheduling — including the
// race detector's slowdown — cannot move a HIT's posting time or a
// linger boundary.
func TestExperimentsDeterministic(t *testing.T) {
	runs := []struct {
		name string
		gen  func() Table
	}{
		{"E8Batching", func() Table { return E8Batching(40, 7) }},
		{"E2Cache", func() Table { return E2Cache(8, 7) }},
		{"E6Redundancy", func() Table { return E6Redundancy(30, 7) }},
		{"E5PreFilter", func() Table { return E5PreFilter(6, 14, 7) }},
		{"E9Sort", func() Table { return E9Sort(12, 7) }},
		{"E10Async", func() Table { return E10Async(20, 7) }},
		{"E11SpamDefense", func() Table { return E11SpamDefense(40, 7) }},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			first := run.gen().String()
			for i := 2; i <= 3; i++ {
				if again := run.gen().String(); again != first {
					t.Fatalf("run %d differs from run 1:\n--- run 1 ---\n%s\n--- run %d ---\n%s",
						i, first, i, again)
				}
			}
		})
	}
}

// TestConcurrentQueriesRaceClean drives several queries through one
// engine at once — executor goroutines, the clock pump, and the locks
// of the marketplace, the clock, the task manager's in-flight table and
// the crowd all in use concurrently. Its value multiplies under `go
// test -race`, which CI runs; without -race it still asserts the
// results are correct.
func TestConcurrentQueriesRaceClean(t *testing.T) {
	photos := workload.Photos(30, 0.5, 0.5, 9)
	cfg := core.Config{
		Crowd: crowd.Config{Seed: 9, Workers: 150, MeanSkill: 0.97, SkillStd: 0.01,
			SpamFraction: 1e-12, AbandonRate: 1e-12},
		Oracle: photos.Oracle,
	}
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, tab := range photos.Tables {
		if err := e.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Define(`
TASK isCat(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", img
  Response: YesNo

TASK isOutdoor(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Outdoors? %s", img
  Response: YesNo
`); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT id FROM photos WHERE isCat(img)",
		"SELECT id FROM photos WHERE isOutdoor(img)",
		"SELECT id FROM photos WHERE isCat(img) AND isOutdoor(img)",
		"SELECT id, img FROM photos",
	}
	var wg sync.WaitGroup
	rows := make([]int, len(queries))
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			n, err := queryAndWait(e, q)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = len(n)
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if rows[3] != 30 {
		t.Errorf("full scan returned %d rows, want 30", rows[3])
	}
	for i, n := range rows[:3] {
		if n == 0 || n > 30 {
			t.Errorf("query %d returned %d rows", i, n)
		}
	}
}
