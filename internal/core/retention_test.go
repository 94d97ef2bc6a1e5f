//go:build !race

// Race instrumentation changes heap sizes, so the retention gate builds
// only without -race.

package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestLongLivedEngineRetention gates what one long-lived engine keeps
// per finished query. It runs 3,000 ten-row range queries with a crowd
// filter over a 2,000-row table, closing each Rows, so the task cache
// fills within the first 200 queries. Every finished HIT must leave the
// marketplace, and the live heap after a full collection may grow by at
// most 1.2 KB per query between query 1,000 and query 3,000: what
// remains is the compact handle Engine.Queries lists (SQL, the retired
// executor's frozen stats, the result count and the scope), not its
// rows, queue buffers, HITs, executor state, plan or trace. With the
// plan cache every query of the shape shares one plan; without it each
// query plans afresh, and once it leaves the dashboard's window only its
// rendered operator labels stay, within 1.7 KB per query.
func TestLongLivedEngineRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("retention gate runs 3,000 queries; skipped in -short")
	}
	const (
		tableRows   = 2000
		queries     = 3000
		measureFrom = 1000
	)
	for _, tc := range []struct {
		name        string
		opts        []QueryOption
		maxPerQuery float64 // bytes of live heap growth per query
	}{
		{"plan cache", nil, 1200},
		{"no plan cache", []QueryOption{WithPlanCache(false)}, 1700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, Config{}, workload.Photos(tableRows, 0.5, 0.5, 4))
			heapFrom := runRangeQueries(t, e, tableRows, queries, measureFrom, tc.opts...)
			// Assignments can still be landing for a moment after the last row.
			retained := func() int { return len(e.Marketplace().AllHITs()) }
			for deadline := time.Now().Add(5 * time.Second); retained() > 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := retained(); n > 0 {
				t.Errorf("marketplace retains %d finished HITs", n)
			}
			heapTo := liveHeap(e)
			perQuery := (float64(heapTo) - float64(heapFrom)) / (queries - measureFrom)
			if perQuery > tc.maxPerQuery {
				t.Errorf("live heap grew %.0f bytes per query between query %d and %d (%.1f MB -> %.1f MB), over the %.0f-byte gate",
					perQuery, measureFrom, queries, float64(heapFrom)/(1<<20), float64(heapTo)/(1<<20), tc.maxPerQuery)
			}
			t.Logf("live heap %.1f MB at query %d, %.1f MB at query %d: %.0f bytes per query",
				float64(heapFrom)/(1<<20), measureFrom, float64(heapTo)/(1<<20), queries, perQuery)
		})
	}
}

// TestStoreRetention gates what the knowledge store adds to a long-lived
// engine's live heap. One engine with a store and one without each run
// 2,000 ten-row range queries with a crowd filter over a 20,000-row
// table, so every query asks 10 new isCat questions and the Task Cache
// grows by 10 entries. From query 1,000 on, the engine with a store may
// grow its live heap by at most 1.5 times as much per query as the one
// without: the store's files are its only copy of what it has learned,
// so memory holds only the cache's own entries and the store's buffers.
func TestStoreRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("store retention gate runs 4,000 queries; skipped in -short")
	}
	const (
		tableRows   = 20000
		queries     = 2000
		measureFrom = 1000
		maxRatio    = 1.5
	)
	perQuery := func(cfg Config) float64 {
		e := newEngine(t, cfg, workload.Photos(tableRows, 0.5, 0.5, 4))
		defer e.Close()
		from := runRangeQueries(t, e, tableRows, queries, measureFrom)
		return (float64(liveHeap(e)) - float64(from)) / (queries - measureFrom)
	}
	without := perQuery(Config{})
	with := perQuery(Config{StorePath: t.TempDir()})
	t.Logf("live heap growth per query from query %d to %d: %.0f B with a store, %.0f B without (%.2fx)",
		measureFrom, queries, with, without, with/without)
	if with > maxRatio*without {
		t.Errorf("with a store the live heap grew %.0f bytes per query, over %.1fx the %.0f bytes without one",
			with, maxRatio, without)
	}
}

// runRangeQueries runs queries ten-row range queries with an isCat
// filter on e under opts, query i over ids (10i, 10i+10] of a
// tableRows-row photos table, closing each Rows, and returns e's live
// heap at query measureFrom.
func runRangeQueries(t *testing.T, e *Engine, tableRows, queries, measureFrom int, opts ...QueryOption) (heapFrom uint64) {
	t.Helper()
	for i := 0; i < queries; i++ {
		if i == measureFrom {
			heapFrom = liveHeap(e)
		}
		lo := (i * 10) % tableRows
		rows, err := e.Query(context.Background(),
			fmt.Sprintf(`SELECT id, img FROM photos WHERE id > %d AND id <= %d AND isCat(img)`, lo, lo+10), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		rows.Close()
	}
	return heapFrom
}

// liveHeap returns the live heap after a full collection, taken once
// e's store (if any) has written every record appended so far, so the
// append backlog is not counted.
func liveHeap(e *Engine) uint64 {
	if st := e.Store(); st != nil {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if s := st.Stats(); s.Written+s.Dropped >= s.Appended {
				break
			}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
