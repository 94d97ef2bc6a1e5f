package taskmgr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/crowd"
	"repro/internal/qerr"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/store"
)

func rankDef() *qlang.TaskDef {
	def, err := qlang.ParseTaskDef(`
TASK orderPics(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order these pictures."
  Response: Order
`)
	if err != nil {
		panic(err)
	}
	return def
}

// scoreOracle ranks items by the numeric id embedded in the image name.
var scoreOracle = crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
	var n int
	if _, err := fmt.Sscanf(args[0].Str(), "item%d.png", &n); err != nil {
		return relation.Null
	}
	return relation.NewFloat(float64(n))
})

func rankItemsN(n int) [][]relation.Value {
	items := make([][]relation.Value, n)
	for i := range items {
		name := fmt.Sprintf("item%02d.png", n-i) // reverse latent order
		items[i] = []relation.Value{relation.NewImage(name)}
	}
	return items
}

func rankAndWait(t *testing.T, m *Manager, clock interface{ Run(func() bool) }, scope *Scope, items [][]relation.Value) ([]Ranking, error) {
	t.Helper()
	var mu sync.Mutex
	var rankings []Ranking
	var rerr error
	done := false
	m.RankBlockIn(scope, rankDef(), items, func(rs []Ranking, err error) {
		mu.Lock()
		rankings, rerr, done = rs, err, true
		mu.Unlock()
	})
	clock.Run(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	})
	return rankings, rerr
}

func TestRankBlockCollectsFullRankings(t *testing.T) {
	m, clock := newRig(t, scoreOracle, crowd.Config{MeanSkill: 0.99, SkillStd: 1e-9, BatchPenalty: 1e-9}, 0)
	items := rankItemsN(5)
	rankings, err := rankAndWait(t, m, clock, nil, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(rankings) != 3 { // default policy redundancy
		t.Fatalf("rankings = %d, want 3 assignments", len(rankings))
	}
	for _, r := range rankings {
		if len(r.Rank) != 5 {
			t.Fatalf("ranking covers %d items, want 5", len(r.Rank))
		}
		// Input is reverse latent order: item05 … item01, so position 0
		// belongs to the last input item (item01).
		if !slices.Equal(r.Rank, []int{4, 3, 2, 1, 0}) {
			t.Fatalf("unexpected ranking %v", r.Rank)
		}
	}
	st := m.StatsFor("orderpics")
	if st.HITsPosted != 1 || st.QuestionsAsked != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRankBlockFeedsAgreementEstimator(t *testing.T) {
	m, clock := newRig(t, scoreOracle, crowd.Config{MeanSkill: 0.99, SkillStd: 1e-9, BatchPenalty: 1e-9}, 0)
	if _, n := m.RankAgreement("orderPics"); n != 0 {
		t.Fatal("fresh estimator should have no evidence")
	}
	if _, err := rankAndWait(t, m, clock, nil, rankItemsN(5)); err != nil {
		t.Fatal(err)
	}
	est, n := m.RankAgreement("orderPics")
	if n != 1 {
		t.Fatalf("observations = %d, want 1 per finalized HIT", n)
	}
	if est < 0.9 {
		t.Fatalf("agreement = %.2f under a near-perfect crowd", est)
	}
}

// captureJournal records appended records for assertions.
type captureJournal struct {
	mu   sync.Mutex
	recs []store.Record
}

func (c *captureJournal) Append(rec store.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
}

func (c *captureJournal) byKind(k store.Kind) []store.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []store.Record
	for _, r := range c.recs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

func TestRankBlockJournalsPairStats(t *testing.T) {
	m, clock := newRig(t, scoreOracle, crowd.Config{MeanSkill: 0.99, SkillStd: 1e-9, BatchPenalty: 1e-9}, 0)
	j := &captureJournal{}
	m.SetJournal(j)
	if _, err := rankAndWait(t, m, clock, nil, rankItemsN(4)); err != nil {
		t.Fatal(err)
	}
	pairs := j.byKind(store.KindRankPair)
	if len(pairs) != 1 {
		t.Fatalf("KindRankPair records = %d, want 1 per HIT", len(pairs))
	}
	rec := pairs[0]
	if rec.Task != "orderPics" || rec.N != 6 { // C(4,2) pairs
		t.Fatalf("record = %+v", rec)
	}
	if rec.X < 0.9 {
		t.Fatalf("agreement share %.2f under a near-perfect crowd", rec.X)
	}
	if lat := j.byKind(store.KindLatency); len(lat) != 1 {
		t.Fatalf("latency records = %d", len(lat))
	}
}

func TestRankBlockCanceledScope(t *testing.T) {
	m, _ := newRig(t, scoreOracle, crowd.Config{}, 0)
	scope := m.NewScope()
	scope.Cancel(nil)
	called := false
	m.RankBlockIn(scope, rankDef(), rankItemsN(3), func(rs []Ranking, err error) {
		called = true
		if err == nil {
			t.Error("want cancellation error")
		}
	})
	if !called {
		t.Fatal("done not called synchronously on a canceled scope")
	}
}

func TestRankBlockCancelMidFlight(t *testing.T) {
	m, clock := newRig(t, scoreOracle, crowd.Config{}, 0)
	scope := m.NewScope()
	var mu sync.Mutex
	var rerr error
	done := false
	m.RankBlockIn(scope, rankDef(), rankItemsN(4), func(rs []Ranking, err error) {
		mu.Lock()
		rerr, done = err, true
		mu.Unlock()
	})
	// Cancel before pumping: the HIT is posted but no assignment has
	// completed, so the full cost must come back.
	spentBefore := scope.Spent()
	if spentBefore == 0 {
		t.Fatal("posting should have charged the scope")
	}
	scope.Cancel(nil)
	mu.Lock()
	defer mu.Unlock()
	if !done {
		t.Fatal("cancel must resolve the block")
	}
	if !errors.Is(rerr, qerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", rerr)
	}
	if got := scope.Spent(); got != 0 {
		t.Fatalf("sunk cost = %v after full expiry, want 0", got)
	}
	_ = clock
}

func TestRankBlockEmptyItems(t *testing.T) {
	m, _ := newRig(t, scoreOracle, crowd.Config{}, 0)
	called := false
	m.RankBlockIn(nil, rankDef(), nil, func(rs []Ranking, err error) {
		called = true
		if err == nil {
			t.Error("want error for empty group")
		}
	})
	if !called {
		t.Fatal("done not called")
	}
}
