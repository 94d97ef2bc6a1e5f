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
		cfg         Config
		maxPerQuery float64 // bytes of live heap growth per query
	}{
		{"plan cache", Config{}, 1200},
		{"no plan cache", Config{PlanCacheSize: -1}, 1700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, tc.cfg, workload.Photos(tableRows, 0.5, 0.5, 4))
			liveHeap := func() uint64 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			var heapFrom uint64
			for i := 0; i < queries; i++ {
				if i == measureFrom {
					heapFrom = liveHeap()
				}
				lo := (i * 10) % tableRows
				rows, err := e.Query(context.Background(),
					fmt.Sprintf(`SELECT id, img FROM photos WHERE id > %d AND id <= %d AND isCat(img)`, lo, lo+10))
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
			// Assignments can still be landing for a moment after the last row.
			retained := func() int { return len(e.Marketplace().AllHITs()) }
			for deadline := time.Now().Add(5 * time.Second); retained() > 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := retained(); n > 0 {
				t.Errorf("marketplace retains %d finished HITs", n)
			}
			heapTo := liveHeap()
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
