package rank

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// fakeMgr answers ratings and comparisons synchronously from latent
// scores, with no noise: ratings return the rounded score, comparisons
// rank a group by exact score. It counts what each strategy paid.
type fakeMgr struct {
	scores      map[string]float64 // key (= first arg string) → latent score
	rateAsks    int
	compareHITs int
	// rateAnswers overrides per-item rating answer lists (to simulate
	// disagreement / confidence intervals); nil uses the exact score.
	rateAnswers map[string][]float64
	failRate    bool // resolve every rating with an error
	failCompare bool // resolve every comparison with an error
}

func (f *fakeMgr) Submit(req taskmgr.Request) {
	f.rateAsks++
	key := req.Args[0].Str()
	if f.failRate {
		req.Done(taskmgr.Outcome{Err: fmt.Errorf("fake: rating down")})
		return
	}
	if ans, ok := f.rateAnswers[key]; ok {
		vals := make([]relation.Value, len(ans))
		sum := 0.0
		for i, a := range ans {
			vals[i] = relation.NewFloat(a)
			sum += a
		}
		req.Done(taskmgr.Outcome{Value: relation.NewFloat(sum / float64(len(ans))), Answers: vals})
		return
	}
	s := f.scores[key]
	req.Done(taskmgr.Outcome{
		Value:   relation.NewFloat(s),
		Answers: []relation.Value{relation.NewFloat(s), relation.NewFloat(s), relation.NewFloat(s)},
	})
}

func (f *fakeMgr) Flush(string) {}

func (f *fakeMgr) FlushScope(string, *taskmgr.Scope) {}

func (f *fakeMgr) RankBlockIn(_ *taskmgr.Scope, def *qlang.TaskDef, items []taskmgr.RankItem, done func([]taskmgr.Ranking, error)) {
	f.compareHITs++
	if f.failCompare {
		done(nil, fmt.Errorf("fake: comparison down"))
		return
	}
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	// Stable sort by latent score: ties keep HIT order, like the crowd.
	sort.SliceStable(idx, func(a, b int) bool {
		return f.scores[items[idx[a]].Key] < f.scores[items[idx[b]].Key]
	})
	rank := make([]int, len(items))
	for pos, i := range idx {
		rank[i] = pos
	}
	done([]taskmgr.Ranking{{WorkerID: "w1", Rank: rank}}, nil)
}

func (f *fakeMgr) PolicyFor(*qlang.TaskDef) taskmgr.Policy {
	return taskmgr.DefaultPolicy()
}

func testDefs(t *testing.T) (rate, cmp *qlang.TaskDef) {
	t.Helper()
	script, err := qlang.Parse(`
TASK rateIt(Image img)
RETURNS Int:
  TaskType: Rating
  Text: "Rate. %s", img
  Response: Rating(1, 9)
  Compare: orderIt

TASK orderIt(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order the items."
  Response: Order
`)
	if err != nil {
		t.Fatal(err)
	}
	rate, _ = script.Task("rateIt")
	cmp, _ = script.Task("orderIt")
	return rate, cmp
}

// makeItems builds n items whose latent score follows a fixed
// pseudo-random permutation (deterministic, no two equal).
func makeItems(n int) ([]Item, *fakeMgr, []int) {
	items := make([]Item, n)
	mgr := &fakeMgr{scores: make(map[string]float64, n)}
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("item%03d", i)
		score := float64((i*7919)%104729) / 1000 // deterministic shuffle
		items[i] = Item{Key: key, Args: []relation.Value{relation.NewString(key)}}
		mgr.scores[key] = score
		ss[i] = scored{idx: i, score: score}
	}
	sort.SliceStable(ss, func(a, b int) bool { return ss[a].score < ss[b].score })
	want := make([]int, n)
	for pos, s := range ss {
		want[pos] = s.idx
	}
	return items, mgr, want
}

func runSync(t *testing.T, items []Item, rate, cmp *qlang.TaskDef, d Decision, mgr Manager) ([]int, Stats) {
	t.Helper()
	var perm []int
	var st Stats
	fired := 0
	Run(items, rate, cmp, d, Config{Mgr: mgr}, func(p []int, s Stats) {
		perm, st = p, s
		fired++
	})
	if fired != 1 {
		t.Fatalf("done fired %d times", fired)
	}
	if len(perm) != len(items) {
		t.Fatalf("perm length %d, want %d", len(perm), len(items))
	}
	seen := make(map[int]bool)
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("perm not a permutation: %v", perm)
		}
		seen[p] = true
	}
	return perm, st
}

func TestCompareGroupsCoverAllPairs(t *testing.T) {
	for _, tc := range []struct{ n, s int }{{2, 5}, {5, 5}, {6, 5}, {17, 5}, {30, 6}, {9, 2}} {
		groups := CompareGroups(tc.n, tc.s)
		covered := make(map[[2]int]bool)
		for _, g := range groups {
			if len(g) > tc.s {
				t.Errorf("n=%d S=%d: group of %d exceeds S", tc.n, tc.s, len(g))
			}
			for a := 0; a < len(g); a++ {
				for b := a + 1; b < len(g); b++ {
					covered[[2]int{g[a], g[b]}] = true
				}
			}
		}
		for i := 0; i < tc.n; i++ {
			for j := i + 1; j < tc.n; j++ {
				if !covered[[2]int{i, j}] {
					t.Errorf("n=%d S=%d: pair (%d,%d) uncovered", tc.n, tc.s, i, j)
				}
			}
		}
	}
}

func TestCompareOrdersExactly(t *testing.T) {
	items, mgr, want := makeItems(23)
	rate, cmp := testDefs(t)
	perm, st := runSync(t, items, rate, cmp, Decision{Strategy: StrategyCompare, GroupSize: 5}, mgr)
	if !reflect.DeepEqual(perm, want) {
		t.Fatalf("compare order:\n got %v\nwant %v", perm, want)
	}
	if st.CompareHITs != CompareHITCount(23, 5, 0) || st.CompareHITs != mgr.compareHITs {
		t.Fatalf("CompareHITs=%d predicted=%d posted=%d", st.CompareHITs, CompareHITCount(23, 5, 0), mgr.compareHITs)
	}
}

func TestCompareDesc(t *testing.T) {
	items, mgr, want := makeItems(14)
	rate, cmp := testDefs(t)
	perm, _ := runSync(t, items, rate, cmp, Decision{Strategy: StrategyCompare, GroupSize: 5, Desc: true}, mgr)
	rev := make([]int, len(want))
	for i, v := range want {
		rev[len(want)-1-i] = v
	}
	if !reflect.DeepEqual(perm, rev) {
		t.Fatalf("desc compare:\n got %v\nwant %v", perm, rev)
	}
}

func TestRateOrders(t *testing.T) {
	items, mgr, want := makeItems(31)
	rate, cmp := testDefs(t)
	perm, st := runSync(t, items, rate, cmp, Decision{Strategy: StrategyRate}, mgr)
	if !reflect.DeepEqual(perm, want) {
		t.Fatalf("rate order:\n got %v\nwant %v", perm, want)
	}
	if st.RateAsks != 31 || mgr.compareHITs != 0 {
		t.Fatalf("RateAsks=%d compareHITs=%d", st.RateAsks, mgr.compareHITs)
	}
}

func TestTopKTournamentPaysFewerHITs(t *testing.T) {
	items, mgr, want := makeItems(60)
	rate, cmp := testDefs(t)
	perm, st := runSync(t, items, rate, cmp,
		Decision{Strategy: StrategyCompare, GroupSize: 5, TopK: 3}, mgr)
	full := CompareHITCount(60, 5, 0)
	if st.CompareHITs >= full {
		t.Fatalf("top-k paid %d HITs, full ordering pays %d", st.CompareHITs, full)
	}
	if st.CompareHITs != CompareHITCount(60, 5, 3) {
		t.Fatalf("top-k paid %d HITs, predicted %d", st.CompareHITs, CompareHITCount(60, 5, 3))
	}
	if !reflect.DeepEqual(perm[:3], want[:3]) {
		t.Fatalf("top-3 = %v, want %v", perm[:3], want[:3])
	}
}

// TestHybridMatchesCompare is the subsystem's core contract: with
// disagreeing ratings forcing windows, hybrid must reproduce the exact
// order all-pairs comparison produces, at fewer comparison HITs.
func TestHybridMatchesCompare(t *testing.T) {
	items, mgr, want := makeItems(40)
	rate, cmp := testDefs(t)
	// Bucket the ratings (many ties) so hybrid has windows to refine:
	// unanimous votes per bucket give zero-width intervals that overlap
	// exactly on ties, so the windows are the buckets themselves.
	mgr.rateAnswers = make(map[string][]float64)
	for key, s := range mgr.scores {
		b := float64(int(s / 25)) // 5 buckets over the score range
		mgr.rateAnswers[key] = []float64{b, b, b}
	}
	perm, st := runSync(t, items, rate, cmp, Decision{Strategy: StrategyHybrid, GroupSize: 5}, mgr)
	if !reflect.DeepEqual(perm, want) {
		t.Fatalf("hybrid order:\n got %v\nwant %v", perm, want)
	}
	if st.Windows == 0 || st.Refined == 0 {
		t.Fatalf("hybrid refined nothing (windows=%d refined=%d)", st.Windows, st.Refined)
	}
	if full := CompareHITCount(40, 5, 0); st.CompareHITs >= full {
		t.Fatalf("hybrid paid %d comparison HITs, full compare pays %d", st.CompareHITs, full)
	}
}

func TestHybridRefineCap(t *testing.T) {
	items, mgr, _ := makeItems(40)
	rate, cmp := testDefs(t)
	mgr.rateAnswers = make(map[string][]float64)
	for key, s := range mgr.scores {
		b := float64(int(s / 25))
		mgr.rateAnswers[key] = []float64{b, b, b}
	}
	_, unlimited := runSync(t, items, rate, cmp, Decision{Strategy: StrategyHybrid, GroupSize: 5}, mgr)
	mgr2 := &fakeMgr{scores: mgr.scores, rateAnswers: mgr.rateAnswers}
	_, capped := runSync(t, items, rate, cmp,
		Decision{Strategy: StrategyHybrid, GroupSize: 5, MaxRefineHITs: 2}, mgr2)
	if capped.CompareHITs > 2 {
		t.Fatalf("refine cap 2 exceeded: %d comparison HITs", capped.CompareHITs)
	}
	if capped.CompareHITs >= unlimited.CompareHITs {
		t.Fatalf("cap did not reduce refinement: %d vs %d", capped.CompareHITs, unlimited.CompareHITs)
	}
}

func TestErrorsDegradeToInputOrder(t *testing.T) {
	items, mgr, _ := makeItems(12)
	rate, cmp := testDefs(t)
	mgr.failCompare = true
	perm, st := runSync(t, items, rate, cmp, Decision{Strategy: StrategyCompare, GroupSize: 5}, mgr)
	if st.Errors == 0 {
		t.Fatal("expected errors")
	}
	want := identity(12)
	if !reflect.DeepEqual(perm, want) {
		t.Fatalf("failed compare should keep input order, got %v", perm)
	}

	mgr2 := &fakeMgr{scores: mgr.scores, failRate: true}
	perm, st = runSync(t, items, rate, cmp, Decision{Strategy: StrategyRate}, mgr2)
	if st.Errors != 12 {
		t.Fatalf("Errors=%d, want 12", st.Errors)
	}
	if !reflect.DeepEqual(perm, want) {
		t.Fatalf("failed rate should keep input order, got %v", perm)
	}
}

func TestCompareHITCountTable(t *testing.T) {
	for _, tc := range []struct{ n, s, k, want int }{
		{0, 5, 0, 0},
		{1, 5, 0, 0},
		{2, 5, 0, 1},
		{5, 5, 0, 1},
		{6, 5, 0, 3},      // half=2 → m=3 → C(3,2)
		{120, 5, 0, 1770}, // m=60
		{5, 5, 3, 1},      // n ≤ S: single HIT regardless of k
		{120, 5, 5, 1770}, // k ≥ S: tournament cannot shrink, full order
	} {
		if got := CompareHITCount(tc.n, tc.s, tc.k); got != tc.want {
			t.Errorf("CompareHITCount(%d,%d,%d) = %d, want %d", tc.n, tc.s, tc.k, got, tc.want)
		}
	}
	if got := CompareHITCount(120, 5, 3); got >= 1770 || got <= 0 {
		t.Errorf("top-3 tournament over 120 = %d HITs, want far under 1770", got)
	}
}

func TestGroupSizeFor(t *testing.T) {
	rate, cmp := testDefs(t)
	if got := GroupSizeFor(rate, cmp); got != DefaultGroupSize {
		t.Fatalf("GroupSizeFor without overrides = %d", got)
	}
	cmp.GroupSize = 7
	if got := GroupSizeFor(rate, cmp); got != 7 {
		t.Fatalf("GroupSizeFor with cmp override = %d", got)
	}
	rate.GroupSize = 4
	cmp.GroupSize = 0
	if got := GroupSizeFor(rate, cmp); got != 4 {
		t.Fatalf("GroupSizeFor with rate override = %d", got)
	}
}
