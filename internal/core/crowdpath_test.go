package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/exec"
	"repro/internal/workload"
)

// crowdPathGolden is the committed record of every crowd-path shape's
// outputs; TestCrowdPathGolden compares against it.
const crowdPathGolden = "testdata/crowd_path_golden.json"

// crowdPathFilters are the cascade's two filters at an explicit
// redundancy and batch size, so the batch path cuts 5-item HITs.
const crowdPathFilters = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
  Assignments: 3
  Batch: 5

TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", photo
  Response: YesNo
  Assignments: 3
  Batch: 5
`

// crowdPathEM is a filter that posts at two assignments and extends
// one at a time, up to five, while the EM posterior stays unsure.
const crowdPathEM = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
  Assignments: 5
  MinAssignments: 2
  Batch: 5
  Infer: em
`

// crowdPathJoin is the celebrity join without a pre-filter: every
// pair is asked in 5×5 JoinColumns grids.
const crowdPathJoin = `
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
`

// crowdPathRun is one shape's observable outputs at one seed.
type crowdPathRun struct {
	Rows       []string `json:"rows"`
	Err        string   `json:"err,omitempty"`
	SpentCents int64    `json:"spent_cents"`
	HITs       int      `json:"hits"`
	Extensions int64    `json:"extensions"`
	CacheItems int      `json:"cache_items"`
	CacheHash  string   `json:"cache_hash"`
	Answered   int      `json:"worker_answered"`
	Correct    int      `json:"worker_correct"`
	PoolHash   string   `json:"pool_hash"`
}

// crowdPathShape is one query shape over a fresh engine per seed.
type crowdPathShape struct {
	name string
	// warm, when set, runs to completion on the same engine before sql,
	// so sql meets a partly filled task cache.
	warm string
	sql  string
	opts []QueryOption
	// setup returns the engine's config (Oracle and Crowd are filled
	// in from the seed), its tables and its task definitions.
	setup func(seed int64) (Config, workload.Dataset, string)
}

func crowdPathShapes() []crowdPathShape {
	photos := func(n int, cfg Config, tasks string) func(int64) (Config, workload.Dataset, string) {
		return func(seed int64) (Config, workload.Dataset, string) {
			return cfg, workload.Photos(n, 0.5, 0.6, seed), tasks
		}
	}
	celebs := func(seed int64) (Config, workload.Dataset, string) {
		return Config{}, workload.Celebrities(10, 15, 0.4, seed), crowdPathJoin
	}
	const fullJoin = `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`
	return []crowdPathShape{
		{name: "two-filter cascade", setup: photos(60, Config{}, crowdPathFilters),
			sql: `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`},
		{name: "grouped filter", setup: photos(40, Config{Exec: exec.Config{GroupFilters: true}}, crowdPathFilters),
			sql: `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`},
		{name: "adaptive EM filter", setup: photos(60, Config{}, crowdPathEM),
			sql: `SELECT id FROM photos WHERE isCat(img)`},
		{name: "crowd sort with limit", setup: func(seed int64) (Config, workload.Dataset, string) {
			ds := workload.RankItems(30, 9, "rateSq", seed)
			ds.Oracle = workload.Combine(ds.Oracle, workload.OrderOracle(ds.Tables[0], "orderSq"))
			return Config{}, ds, rankTaskSrc
		}, sql: `SELECT img, truth FROM items ORDER BY rateSq(img) DESC LIMIT 10`},
		{name: "grid join", setup: celebs, sql: fullJoin},
		// The warm query caches names below 'M' × ids up to 7, so the
		// full join's grids shrink to the cells still needed, and some
		// shrunk grids meet their columns out of ascending order.
		{name: "partly cached grid join", setup: celebs, sql: fullJoin,
			warm: `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars
WHERE celebrities.name < 'M' AND spottedstars.id <= 7 AND samePerson(celebrities.image, spottedstars.image)`},
		{name: "grid join over budget", setup: celebs, sql: fullJoin, opts: []QueryOption{WithBudget(10)}},
		{name: "limit over a crowd filter", setup: photos(80, Config{}, crowdPathFilters),
			sql: `SELECT id FROM photos WHERE isCat(img) LIMIT 10`},
		{name: "budget exhausted", setup: photos(60, Config{}, crowdPathFilters),
			sql: `SELECT id FROM photos WHERE isCat(img)`, opts: []QueryOption{WithBudget(20)}},
	}
}

// runCrowdPath runs one shape at one seed on a fresh engine over the
// default (noisy) simulated crowd, so a vote that reaches the wrong
// item changes the outputs.
func runCrowdPath(t *testing.T, sh crowdPathShape, seed int64) crowdPathRun {
	t.Helper()
	cfg, ds, tasks := sh.setup(seed)
	cfg.Oracle = ds.Oracle
	cfg.Crowd = crowd.Config{Seed: seed}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, tab := range ds.Tables {
		if err := e.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Define(tasks); err != nil {
		t.Fatal(err)
	}
	if sh.warm != "" {
		rows, err := e.Query(context.Background(), sh.warm)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var run crowdPathRun
	rows, err := e.Query(context.Background(), sh.sql, sh.opts...)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		vals := rows.Tuple().Values
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		run.Rows = append(run.Rows, strings.Join(parts, " | "))
	}
	if err := rows.Err(); err != nil {
		run.Err = err.Error()
	}
	// A LIMIT stream ends before its producers' requests resolve; wait
	// for them, so Close cancels nothing and every HIT ran to the end.
	waitFor(t, "every operator is done", func() bool { return allOpsDone(rows.Handle()) })
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	run.SpentCents = int64(e.Manager().Account().Spent())
	run.HITs = e.Marketplace().Stats().HITsPosted
	run.Extensions = e.Manager().InferenceStats().Extensions
	h := fnv.New64a()
	var buf []byte
	for _, ent := range e.Manager().Cache().Export() {
		buf = append(buf[:0], ent.Key.Task...)
		buf = append(buf, 0)
		buf = append(buf, ent.Key.Args...)
		buf = append(buf, 0)
		for _, v := range ent.Answers {
			buf = v.Encode(buf)
			buf = append(buf, 0x1e)
		}
		h.Write(buf)
		run.CacheItems++
	}
	run.CacheHash = fmt.Sprintf("%016x", h.Sum64())
	h.Reset()
	for _, w := range e.Pool().Stats() {
		fmt.Fprintf(h, "%s %d %d\n", w.ID, w.Answered, w.Correct)
		run.Answered += w.Answered
		run.Correct += w.Correct
	}
	run.PoolHash = fmt.Sprintf("%016x", h.Sum64())
	return run
}

// TestCrowdPathGolden pins what the crowd path produces — result rows,
// spend, HITs posted, every cached item's raw answers in arrival order
// and the simulated workers' tallies — for the batch, grouped, adaptive,
// join-grid (full, shrunk by a partly filled cache, and over budget)
// and rank HIT kinds at two seeds, against a committed fixture. A
// refactor of how HITs carry their items must leave every
// figure unchanged: an answer routed to the wrong item changes the
// cache hash. When the fixture is missing the test writes it and fails.
func TestCrowdPathGolden(t *testing.T) {
	got := make(map[string]crowdPathRun)
	for _, sh := range crowdPathShapes() {
		for _, seed := range []int64{1, 2} {
			got[fmt.Sprintf("%s/seed=%d", sh.name, seed)] = runCrowdPath(t, sh, seed)
		}
	}
	raw, err := os.ReadFile(crowdPathGolden)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crowdPathGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it, then rerun", crowdPathGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]crowdPathRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in the fixture but no longer run", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("%s: outputs changed\ngot  %s\nwant %s", name, gj, wj)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: run but missing from the fixture", name)
		}
	}
	// The budget shape must actually run out of money, and the EM
	// shape must actually extend, or they pin nothing of those paths.
	for _, seed := range []int64{1, 2} {
		if g := got[fmt.Sprintf("budget exhausted/seed=%d", seed)]; budget.Cents(g.SpentCents) > 20 || g.CacheItems >= 60 || g.Err == "" {
			t.Errorf("budget shape at seed %d spent %d¢ over %d items (err %q); want the 20¢ cap to stop it", seed, g.SpentCents, g.CacheItems, g.Err)
		}
		if g := got[fmt.Sprintf("grid join over budget/seed=%d", seed)]; budget.Cents(g.SpentCents) > 10 || g.Err == "" {
			t.Errorf("join budget shape at seed %d spent %d¢ (err %q); want the 10¢ cap to stop it", seed, g.SpentCents, g.Err)
		}
		if g := got[fmt.Sprintf("adaptive EM filter/seed=%d", seed)]; g.Extensions == 0 {
			t.Errorf("EM shape at seed %d bought no extensions", seed)
		}
	}
}
