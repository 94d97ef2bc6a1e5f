package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/dashboard"
	"repro/internal/relation"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// rowKeys extracts a sorted, comparable view of a one-column result.
func rowKeys(rows []relation.Tuple) []string {
	keys := make([]string, 0, len(rows))
	for _, row := range rows {
		keys = append(keys, row.Values[0].Str())
	}
	sort.Strings(keys)
	return keys
}

// TestEngineWarmStart is the tentpole end to end: a second engine over
// the first one's store answers the same query without paying, starts
// with informed estimators, and shows the warm-start dashboard panel.
func TestEngineWarmStart(t *testing.T) {
	dir := t.TempDir()
	ds := workload.Photos(60, 0.5, 0.6, 9)
	query := `SELECT img FROM photos WHERE isCat(img)`

	run1 := newEngine(t, Config{StorePath: dir}, ds)
	rows1, err := queryAll(run1, query)
	if err != nil {
		t.Fatal(err)
	}
	paid1 := run1.Marketplace().Stats().HITsPosted
	if paid1 == 0 {
		t.Fatal("cold run posted no HITs")
	}
	if run1.WarmStart().CacheEntries != 0 {
		t.Fatalf("cold run warm-start summary = %+v", run1.WarmStart())
	}
	run1.Close() // drains and syncs the store

	run2 := newEngine(t, Config{StorePath: dir}, ds)
	// Replayed statistics are live before any question is asked.
	if st := run2.Manager().StatsFor("iscat"); st.SelTrials == 0 {
		t.Fatalf("run 2 starts with no selectivity evidence: %+v", st)
	}
	if run2.WarmStart().CacheEntries == 0 || run2.WarmStart().Observations == 0 {
		t.Fatalf("run 2 replayed nothing: %+v", run2.WarmStart())
	}
	rows2, err := queryAll(run2, query)
	if err != nil {
		t.Fatal(err)
	}
	if paid2 := run2.Marketplace().Stats().HITsPosted; paid2 != 0 {
		t.Fatalf("warm run posted %d HITs, want 0 (everything cached)", paid2)
	}
	got1, got2 := rowKeys(rows1), rowKeys(rows2)
	if len(got1) != len(got2) {
		t.Fatalf("row counts differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("row %d differs: %q vs %q", i, got1[i], got2[i])
		}
	}

	snap := run2.Snapshot()
	if snap.Warmstart.Answers == 0 || snap.Warmstart.SavedCents == 0 {
		t.Fatalf("warm-start panel empty: %+v", snap.Warmstart)
	}
	if text := dashboard.Render(snap); !strings.Contains(text, "Warm start:") {
		t.Fatalf("dashboard missing warm-start panel:\n%s", text)
	}
	// The cold engine's dashboard must not show the panel.
	if strings.Contains(dashboard.Render(run1.Snapshot()), "Warm start:") {
		t.Fatal("cold dashboard shows a warm-start panel")
	}
}

// TestReputationDurability: a spammer blocked in run 1 receives no
// assignments in run 2 after replay — reputation evidence, not just
// answers, survives the restart.
func TestReputationDurability(t *testing.T) {
	dir := t.TempDir()
	ds := workload.Photos(80, 0.5, 0.6, 3)
	// A small crowd with a heavy spammer fraction: spammers answer
	// uniformly at random, so their majority agreement collapses.
	spammy := Config{StorePath: dir}
	newSpammyEngine := func() *Engine {
		e := newEngine(t, withCrowd(spammy, 12, 0.4), ds)
		return e
	}

	run1 := newSpammyEngine()
	if _, err := queryAll(run1, `SELECT img FROM photos WHERE isCat(img)`); err != nil {
		t.Fatal(err)
	}
	quals := run1.Manager().WorkerQualities()
	if len(quals) == 0 {
		t.Fatal("no reputations accumulated")
	}
	worst := quals[0] // sorted suspects first
	if worst.Agreement >= 0.75 || worst.Votes < 10 {
		t.Skipf("no convincing spammer emerged (worst %+v)", worst)
	}
	run1.Close()

	run2 := newSpammyEngine()
	restored := findQuality(run2.Manager().WorkerQualities(), worst.ID)
	if restored.Votes != worst.Votes || restored.Agreed != worst.Agreed {
		t.Fatalf("reputation not replayed: run1 %+v, run2 %+v", worst, restored)
	}
	if blocked := run2.Manager().BlockedWorkers(10, 0.75); len(blocked) == 0 {
		t.Fatal("replayed reputation blocks nobody")
	}
	run2.Manager().EnableBlocklist(10, 0.75)
	// New work the cache cannot answer: a different filter over the same
	// photos (the Photos oracle also answers isOutdoor).
	if err := run2.Define(`
TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this taken outdoors? %s", photo
  Response: YesNo
`); err != nil {
		t.Fatal(err)
	}
	if _, err := queryAll(run2, `SELECT img FROM photos WHERE isOutdoor(img)`); err != nil {
		t.Fatal(err)
	}
	after := findQuality(run2.Manager().WorkerQualities(), worst.ID)
	if after.Votes != restored.Votes {
		t.Fatalf("blocked spammer %s still answered: votes %d → %d",
			worst.ID, restored.Votes, after.Votes)
	}
	// The run still completed: someone else did the work.
	if run2.Marketplace().Stats().HITsPosted == 0 {
		t.Fatal("run 2 posted no HITs")
	}
}

func findQuality(quals []taskmgr.WorkerQuality, id string) taskmgr.WorkerQuality {
	for _, q := range quals {
		if q.ID == id {
			return q
		}
	}
	return taskmgr.WorkerQuality{}
}

// withCrowd pins a small spam-heavy crowd onto cfg.
func withCrowd(cfg Config, workers int, spam float64) Config {
	cfg.Crowd.Seed = 7
	cfg.Crowd.Workers = workers
	cfg.Crowd.MeanSkill = 0.95
	cfg.Crowd.SkillStd = 0.01
	cfg.Crowd.SpamFraction = spam
	cfg.Crowd.AbandonRate = 1e-12
	cfg.Crowd.BatchPenalty = 1e-6
	return cfg
}
