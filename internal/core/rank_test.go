package core

import (
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/internal/rank"
	"repro/internal/workload"
)

const rankTaskSrc = `
TASK rateSq(Image img)
RETURNS Int:
  TaskType: Rating
  Text: "Rate this item from 1 to 9. %s", img
  Response: Rating(1, 9)
  Compare: orderSq

TASK orderSq(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order these items from worst to best."
  Response: Order
  GroupSize: 5
`

// newRankEngine builds an engine over a RankItems dataset with both the
// rating surface and its comparison companion, under a near-perfect
// crowd so order assertions are exact.
func newRankEngine(t *testing.T, n int) *Engine {
	t.Helper()
	ds := workload.RankItems(n, 9, "rateSq", 3)
	cfg := Config{
		Oracle: workload.Combine(ds.Oracle, workload.OrderOracle(ds.Tables[0], "orderSq")),
		Crowd: crowd.Config{Seed: 5, Workers: 200, MeanSkill: 0.9999,
			SkillStd: 1e-9, BatchPenalty: 1e-9,
			SpamFraction: 1e-12, AbandonRate: 1e-12},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for _, tab := range ds.Tables {
		if err := e.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Define(rankTaskSrc); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineRankOrderBy drives the human-powered sort end to end: the
// optimizer chooses a strategy (hybrid here — fresh engines cannot
// certify rating agreement, and hybrid undercuts all-pairs compare),
// comparison HITs flow through the query's scope, and the rows stream
// out in the latent order.
func TestEngineRankOrderBy(t *testing.T) {
	e := newRankEngine(t, 24)
	rows, err := queryAll(e, `SELECT img, truth FROM items ORDER BY rateSq(img)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Get("truth").Float() < rows[i-1].Get("truth").Float() {
			t.Fatalf("row %d out of order: %v after %v", i, rows[i].Get("truth"), rows[i-1].Get("truth"))
		}
	}
	queries := e.Queries()
	stats := queries[len(queries)-1].Exec.RankStats()
	if len(stats) != 1 {
		t.Fatalf("RankStats = %v", stats)
	}
	rs := stats[0]
	if rs.Strategy != string(rank.StrategyHybrid) {
		t.Fatalf("strategy = %s, want hybrid on a fresh engine with a Compare companion", rs.Strategy)
	}
	if rs.RateAsks != 24 || rs.CompareHITs == 0 {
		t.Fatalf("stats = %+v, want a rating pass plus comparison refinement", rs)
	}
	if full := rank.CompareHITCount(24, 5, 0); rs.CompareHITs >= full {
		t.Fatalf("hybrid paid %d comparison HITs, all-pairs costs %d", rs.CompareHITs, full)
	}

	// The dashboard's sort panel prices the avoided comparisons.
	snap := e.Snapshot()
	if snap.Savings.SortCompareHITs != int64(rs.CompareHITs) || snap.Savings.SortRateHITs == 0 {
		t.Fatalf("savings = %+v", snap.Savings)
	}
	if snap.Savings.SortSavedCents <= 0 {
		t.Fatalf("SortSavedCents = %v", snap.Savings.SortSavedCents)
	}
	if !strings.Contains(dashboard.Render(snap), "Sort: ") {
		t.Fatal("dashboard render lacks the sort panel")
	}
}

// TestEngineRankTopKPushdown: with LIMIT k the comparison work shrinks
// to the tournament, and the first k rows are still exactly right.
func TestEngineRankTopKPushdown(t *testing.T) {
	e := newRankEngine(t, 30)
	// Force the compare strategy so the test pins tournament economics
	// (the default chooser would pick hybrid).
	e.cfg.Exec.RankStrategy = nil // engine default installs the chooser at query start
	rows, err := queryAll(e, `SELECT img, truth FROM items ORDER BY rateSq(img) DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Get("truth").Float() > rows[i-1].Get("truth").Float() {
			t.Fatalf("row %d out of order under DESC", i)
		}
	}
	queries := e.Queries()
	rs := queries[len(queries)-1].Exec.RankStats()[0]
	if full := rank.CompareHITCount(30, 5, 0); rs.CompareHITs >= full {
		t.Fatalf("top-k paid %d comparison HITs, full ordering costs %d", rs.CompareHITs, full)
	}
}

// TestRankAgreementSurvivesRestart: comparison agreement journaled
// through the knowledge store seeds a fresh engine's ChooseRankStrategy
// evidence before it posts a single HIT.
func TestRankAgreementSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ds := workload.RankItems(20, 9, "rateSq", 3)
	mkCfg := func() Config {
		return Config{
			Oracle: workload.Combine(ds.Oracle, workload.OrderOracle(ds.Tables[0], "orderSq")),
			Crowd: crowd.Config{Seed: 5, Workers: 200, MeanSkill: 0.9999,
				SkillStd: 1e-9, BatchPenalty: 1e-9,
				SpamFraction: 1e-12, AbandonRate: 1e-12},
			StorePath: dir,
		}
	}
	e1, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range ds.Tables {
		if err := e1.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Define(rankTaskSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := queryAll(e1, `SELECT img FROM items ORDER BY rateSq(img)`); err != nil {
		t.Fatal(err)
	}
	want, n1 := e1.Manager().RankAgreement("orderSq")
	if n1 == 0 {
		t.Fatal("run 1 accumulated no comparison evidence")
	}
	e1.Close()

	e2, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, n2 := e2.Manager().RankAgreement("orderSq")
	if n2 != n1 || got != want {
		t.Fatalf("warm start replayed (%.3f, %d), run 1 ended with (%.3f, %d)", got, n2, want, n1)
	}
}

// TestRankAgreementWarmsChooser: comparison HITs feed the pairwise
// agreement estimator the optimizer's hybrid window model reads.
func TestRankAgreementWarmsChooser(t *testing.T) {
	e := newRankEngine(t, 20)
	if _, err := queryAll(e, `SELECT img FROM items ORDER BY rateSq(img)`); err != nil {
		t.Fatal(err)
	}
	est, n := e.Manager().RankAgreement("orderSq")
	if n == 0 {
		t.Fatal("no comparison-agreement evidence accumulated")
	}
	if est < 0.9 {
		t.Fatalf("agreement estimate %.2f under a near-perfect crowd", est)
	}
}
