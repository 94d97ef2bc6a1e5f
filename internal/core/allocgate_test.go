//go:build !race

// Race instrumentation inflates allocation counts far past the committed
// baseline, so the gate builds only without -race.

package core

import (
	"context"
	"encoding/json"
	"os"
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
// the simulated crowd, fails above 1.25× the allocs/op committed in
// testdata/crowd_alloc_baseline.json. It covers what internal/exec's
// TestAllocRegressionGate cannot: its pipelines never call the crowd.
func TestCrowdAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurements; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/crowd_alloc_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		FilterCascade float64 `json:"filter_cascade"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
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
	got := testing.AllocsPerRun(5, run)
	if limit := 1.25 * baseline.FilterCascade; got > limit {
		t.Errorf("filter cascade allocs/op = %.0f, over the 1.25x gate (baseline %.0f, limit %.0f); if the growth is intentional, refresh testdata/crowd_alloc_baseline.json",
			got, baseline.FilterCascade, limit)
	}
	t.Logf("filter cascade: %.0f allocs/op (baseline %.0f)", got, baseline.FilterCascade)
}
