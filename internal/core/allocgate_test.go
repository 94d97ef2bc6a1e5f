//go:build !race

// Race instrumentation inflates allocation counts far past the committed
// baseline, so the gate builds only without -race.

package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/crowd"
	"repro/internal/relation"
	"repro/internal/workload"
)

const cascadeTasks = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
  Batch: 5

TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", photo
  Response: YesNo
  Batch: 5
`

// TestCrowdAllocGate gates the crowd path on two fresh-engine loads,
// through Engine.Query with the simulated crowd: the paper's two-filter
// cascade over 100 photos (the batch HIT lifecycle), and a compare sort
// of 30 items with LIMIT 10 followed by a 10×15 grid join (the
// comparison and join-grid lifecycles). Each fails above 1.25× the
// allocations or the bytes allocated per run committed in
// testdata/crowd_alloc_baseline.json. It covers what internal/exec's
// TestAllocRegressionGate cannot: its pipelines never call the crowd.
func TestCrowdAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	baseline := readAllocBaseline(t)
	photos := workload.Photos(100, 0.5, 0.5, 1)
	cascade := func() {
		e := gateEngine(t, photos.Oracle, photos.Tables, cascadeTasks)
		defer e.Close()
		drain(t, e, `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`)
	}
	items := workload.RankItems(30, 9, "rateSq", 1)
	celebs := workload.Celebrities(10, 15, 0.4, 1)
	oracle := workload.Combine(items.Oracle, workload.OrderOracle(items.Tables[0], "orderSq"), celebs.Oracle)
	tables := append(append([]*relation.Table(nil), items.Tables...), celebs.Tables...)
	joinSort := func() {
		e := gateEngine(t, oracle, tables, rankTaskSrc+crowdPathJoin)
		defer e.Close()
		// Ordering by the comparison task itself leaves compare as the
		// only strategy; with LIMIT 10 over groups of 5 it orders all
		// pairs, so every HIT has resolved before the first row.
		drain(t, e, `SELECT img, truth FROM items ORDER BY orderSq(img) DESC LIMIT 10`)
		drain(t, e, `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`)
	}
	for _, g := range []struct {
		name                string
		run                 func()
		baseAllocs, baseKiB float64
	}{
		{"filter cascade", cascade, baseline.FilterCascade, baseline.FilterCascadeBytes / 1024},
		{"join+sort", joinSort, baseline.JoinSort, baseline.JoinSortBytes / 1024},
	} {
		g.run() // warm the pools
		allocs, bytes := perRun(5, g.run)
		kb := bytes / 1024
		if limit := 1.25 * g.baseAllocs; allocs > limit {
			t.Errorf("%s allocs/op = %.0f, over the 1.25x gate (baseline %.0f, limit %.0f); if the growth is intentional, refresh testdata/crowd_alloc_baseline.json",
				g.name, allocs, g.baseAllocs, limit)
		}
		if limit := 1.25 * g.baseKiB; kb > limit {
			t.Errorf("%s bytes/op = %.0f KB, over the 1.25x gate (baseline %.0f KB, limit %.0f KB); if the growth is intentional, refresh testdata/crowd_alloc_baseline.json",
				g.name, kb, g.baseKiB, limit)
		}
		t.Logf("%s: %.0f allocs/op, %.0f KB/op (baseline %.0f allocs, %.0f KB)", g.name, allocs, kb, g.baseAllocs, g.baseKiB)
	}
}

// gateEngine builds a fresh engine over tables with the simulated crowd.
func gateEngine(t *testing.T, oracle crowd.Oracle, tables []*relation.Table, tasks string) *Engine {
	t.Helper()
	e, err := New(Config{Oracle: oracle, Crowd: crowd.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if err := e.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Define(tasks); err != nil {
		t.Fatal(err)
	}
	return e
}

// drain runs sql on e and reads its stream to the end.
func drain(t *testing.T, e *Engine, sql string) {
	t.Helper()
	rows, err := e.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
}

// perRun reports the mean allocations and bytes allocated per call of
// f, measured the way testing.AllocsPerRun measures allocations: after
// one warm-up call, with GOMAXPROCS at 1.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// allocBaseline is testdata/crowd_alloc_baseline.json.
type allocBaseline struct {
	FilterCascade      float64 `json:"filter_cascade"`
	FilterCascadeBytes float64 `json:"filter_cascade_bytes"`
	JoinSort           float64 `json:"join_sort"`
	JoinSortBytes      float64 `json:"join_sort_bytes"`
	ReopenAllocs       float64 `json:"reopen_allocs"`
	ReopenBytes        float64 `json:"reopen_bytes"`
}

func readAllocBaseline(t *testing.T) allocBaseline {
	t.Helper()
	raw, err := os.ReadFile("testdata/crowd_alloc_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var b allocBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReopenAllocGate gates the warm-start path: reopening an engine
// (New + Register + Define) over the store one 1,000-row isCat query
// left behind fails above 1.25× the allocations or the bytes per reopen
// committed in testdata/crowd_alloc_baseline.json. Each reopen gets a
// fresh copy of the store, so every run replays the same files.
func TestReopenAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	baseline := readAllocBaseline(t)
	ds := workload.Photos(1000, 0.5, 0.5, 1)
	open := func(dir string) *Engine {
		e, err := New(Config{Oracle: ds.Oracle, Crowd: crowd.Config{Seed: 3}, StorePath: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range ds.Tables {
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Define(cascadeTasks); err != nil {
			t.Fatal(err)
		}
		return e
	}
	warmed := filepath.Join(t.TempDir(), "warmed")
	e := open(warmed)
	if _, err := e.QueryAndWait(`SELECT id FROM photos WHERE isCat(img)`); err != nil {
		t.Fatal(err)
	}
	e.Close()

	const runs = 5
	var mallocs, bytes uint64
	for i := 0; i <= runs; i++ {
		dir := filepath.Join(t.TempDir(), "reopen")
		copyStore(t, warmed, dir)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := open(dir)
		runtime.ReadMemStats(&after)
		e.Close()
		if i == 0 {
			continue // warm the pools
		}
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	allocs, kb := float64(mallocs)/runs, float64(bytes)/runs/1024
	if limit := 1.25 * baseline.ReopenAllocs; allocs > limit {
		t.Errorf("reopen allocs = %.0f, over the 1.25x gate (baseline %.0f, limit %.0f); if the growth is intentional, refresh testdata/crowd_alloc_baseline.json",
			allocs, baseline.ReopenAllocs, limit)
	}
	if limit := 1.25 * baseline.ReopenBytes; kb*1024 > limit {
		t.Errorf("reopen bytes = %.0f KB, over the 1.25x gate (baseline %.0f KB, limit %.0f KB); if the growth is intentional, refresh testdata/crowd_alloc_baseline.json",
			kb, baseline.ReopenBytes/1024, limit/1024)
	}
	t.Logf("reopen: %.0f allocs, %.0f KB (baseline %.0f allocs, %.0f KB)", allocs, kb, baseline.ReopenAllocs, baseline.ReopenBytes/1024)
}

// copyStore copies the flat store directory src to dst.
func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
