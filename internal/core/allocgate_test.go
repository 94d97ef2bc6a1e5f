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

// TestCrowdAllocGate gates the crowd path: the paper's two-filter cascade
// over 100 photos, on a fresh engine per run through Engine.Query with
// the simulated crowd, fails above 1.25× the allocations or the bytes
// allocated per run committed in testdata/crowd_alloc_baseline.json. It
// covers what internal/exec's TestAllocRegressionGate cannot: its
// pipelines never call the crowd.
func TestCrowdAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	baseline := readAllocBaseline(t)
	ds := workload.Photos(100, 0.5, 0.5, 1)
	run := func() {
		e, err := New(Config{Oracle: ds.Oracle, Crowd: crowd.Config{Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, tab := range ds.Tables {
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Define(cascadeTasks); err != nil {
			t.Fatal(err)
		}
		rows, err := e.Query(context.Background(), `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`)
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
	run() // warm the pools
	allocs, bytes := perRun(5, run)
	if limit := 1.25 * baseline.FilterCascade; allocs > limit {
		t.Errorf("filter cascade allocs/op = %.0f, over the 1.25x gate (baseline %.0f, limit %.0f); if the growth is intentional, refresh testdata/crowd_alloc_baseline.json",
			allocs, baseline.FilterCascade, limit)
	}
	if limit := 1.25 * baseline.FilterCascadeBytes; bytes > limit {
		t.Errorf("filter cascade bytes/op = %.0f KB, over the 1.25x gate (baseline %.0f KB, limit %.0f KB); if the growth is intentional, refresh testdata/crowd_alloc_baseline.json",
			bytes/1024, baseline.FilterCascadeBytes/1024, limit/1024)
	}
	t.Logf("filter cascade: %.0f allocs/op, %.0f KB/op (baseline %.0f allocs, %.0f KB)",
		allocs, bytes/1024, baseline.FilterCascade, baseline.FilterCascadeBytes/1024)
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
