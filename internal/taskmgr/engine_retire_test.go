package taskmgr_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/workload"
)

// TestEngineQueriesRetireFairShare runs queries to completion through
// Engine.Query and then finds the admission scheduler's fair-share
// history empty: each query's scope retires when the query's last
// executor goroutine exits, with no caller retiring it by hand.
func TestEngineQueriesRetireFairShare(t *testing.T) {
	photos := workload.Photos(20, 0.5, 0.5, 3)
	e, err := core.New(core.Config{Crowd: crowd.Config{Seed: 3}, Oracle: photos.Oracle})
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
	for _, sql := range []string{
		"SELECT id FROM photos WHERE isCat(img)",
		"SELECT id FROM photos WHERE isOutdoor(img)",
	} {
		rows, err := e.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		q := rows.Handle().Exec
		for deadline := time.Now().Add(10 * time.Second); !q.Retired(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never retired", sql)
			}
		}
	}
	if posted := e.Marketplace().Stats().HITsPosted; posted == 0 {
		t.Fatal("the queries posted no HITs, so no scope was admitted")
	}
	if n := e.Manager().FairShareScopes(); n != 0 {
		t.Fatalf("the scheduler keeps fair-share history for %d scopes after their queries retired", n)
	}
}
