package exec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// fourPhotos registers one photo per isCat × isOutdoor truth pair.
func (r *rig) fourPhotos(t *testing.T) [][]relation.Value {
	t.Helper()
	var rows [][]relation.Value
	for _, name := range []string{"cat-out-1.png", "cat-in-2.png", "dog-out-3.png", "dog-in-4.png"} {
		rows = append(rows, []relation.Value{relation.NewImage(name)})
	}
	r.addTable(t, "photos", []relation.Column{{Name: "img", Kind: relation.KindImage}}, rows...)
	return rows
}

// waitQuery waits for q's stream to end and for every operator to exit.
func waitQuery(t *testing.T, q *Query) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	select {
	case <-q.Done():
	case <-deadline:
		t.Fatalf("query stuck; opstats=%v", q.OpStats())
	}
	for !q.Retired() {
		select {
		case <-deadline:
			t.Fatalf("query never retired; opstats=%v", q.OpStats())
		case <-time.After(time.Millisecond):
		}
	}
}

// TestTwoSiteConjunctCacheAndCrowd: a conjunct that calls two tasks
// settles once both answers are in, whichever of its sites the cache
// answers inside Submit and whichever the crowd answers later.
func TestTwoSiteConjunctCacheAndCrowd(t *testing.T) {
	for _, query := range []string{
		`SELECT img FROM photos WHERE isCat(img) = isOutdoor(img)`, // the cache answers site 0
		`SELECT img FROM photos WHERE isOutdoor(img) = isCat(img)`, // the cache answers site 1
	} {
		t.Run(query, func(t *testing.T) {
			r := newExecRig(t, 0.99)
			for _, row := range r.fourPhotos(t) {
				truth := testOracle.Truth("isCat", row)
				r.mgr.Cache().Put(cache.NewKey("isCat", row), cache.EncodeAnswers([]relation.Value{truth}))
			}
			var got []string
			for _, row := range r.run(t, query, Config{}) {
				got = append(got, row.Values[0].Str())
			}
			if slices.Sort(got); strings.Join(got, " ") != "cat-out-1.png dog-in-4.png" {
				t.Fatalf("rows = %v, want the two photos whose answers agree", got)
			}
			if cat, out := r.mgr.StatsFor("iscat"), r.mgr.StatsFor("isoutdoor"); cat.CacheHits != 4 || cat.HITsPosted != 0 || out.QuestionsAsked != 4 {
				t.Fatalf("isCat %d cache hits, %d HITs; isOutdoor %d questions; want 4, 0, 4", cat.CacheHits, cat.HITsPosted, out.QuestionsAsked)
			}
		})
	}
}

// TestFailedSubmissionFirstErrorWins: when both calls of a conjunct
// fail, because the query's budget cannot pay for any HIT, each tuple
// reports one error, the first, and none is pushed.
func TestFailedSubmissionFirstErrorWins(t *testing.T) {
	r := newExecRig(t, 0.99)
	r.fourPhotos(t)
	sc := r.mgr.NewScope()
	sc.SetBudget(1) // below one HIT's price
	q, err := Start(mustPlan(t, r, `SELECT img FROM photos WHERE isCat(img) = isOutdoor(img)`),
		Config{Mgr: r.mgr, Script: r.script, Scope: sc})
	if err != nil {
		t.Fatal(err)
	}
	waitQuery(t, q)
	if rows := q.Result().Rows(); len(rows) != 0 {
		t.Fatalf("rows = %v, want none", rows)
	}
	errs := q.Errors()
	if len(errs) != 4 {
		t.Fatalf("errors = %v, want one per tuple", errs)
	}
	for _, err := range errs {
		if !errors.Is(err, budget.ErrExhausted) {
			t.Errorf("error %v, want budget exhaustion", err)
		}
	}
	for _, task := range []string{"iscat", "isoutdoor"} {
		if s := r.mgr.StatsFor(task); s.Submitted != 4 || s.HITsPosted != 0 {
			t.Errorf("%s: %d submitted, %d HITs posted; want 4 and 0", task, s.Submitted, s.HITsPosted)
		}
	}
	if spent := sc.Spent(); spent != 0 {
		t.Errorf("spent %v, want 0", spent)
	}
}

// TestCancelMidCascade: a query canceled while a tuple waits on its
// second conjunct posts no HIT after the cancel, and its filter's
// outstanding tuples all settle, so the operator exits and the query
// retires.
func TestCancelMidCascade(t *testing.T) {
	r := newExecRig(t, 0.99)
	var rows [][]relation.Value
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("cat-out-%d.png", i)
		if i%2 == 1 {
			name = fmt.Sprintf("dog-%d.png", i)
		}
		rows = append(rows, []relation.Value{relation.NewImage(name)})
	}
	r.addTable(t, "photos", []relation.Column{{Name: "img", Kind: relation.KindImage}}, rows...)
	posted := func() int64 {
		return r.mgr.StatsFor("iscat").HITsPosted + r.mgr.StatsFor("isoutdoor").HITsPosted
	}
	started := make(chan *Query, 1)
	var entered atomic.Int32
	var atCancel, outdoorAtCancel int64 = -1, -1
	inflightAtCancel := -1
	// The window admits two tuples at a time: a cat that passes isCat
	// and a dog that fails it. The third tuple enters once one of them
	// leaves, and the order hook cancels the query as it enters.
	order := func([]qlang.Expr) []int {
		if entered.Add(1) == 3 {
			q := <-started
			outdoorAtCancel, inflightAtCancel = r.mgr.StatsFor("isoutdoor").Submitted, r.mgr.Inflight()
			q.Cancel(nil)
			atCancel = posted()
		}
		return nil
	}
	q, err := Start(mustPlan(t, r, `SELECT img FROM photos WHERE isCat(img) AND isOutdoor(img)`),
		Config{Mgr: r.mgr, Script: r.script, Scope: r.mgr.NewScope(), FilterWindow: 2, FilterOrder: order})
	if err != nil {
		t.Fatal(err)
	}
	started <- q
	waitQuery(t, q)
	t.Logf("at cancel: %d HITs posted, %d isOutdoor submitted, %d in flight", atCancel, outdoorAtCancel, inflightAtCancel)
	// Only the cat can have asked isOutdoor, and it is the one in flight.
	if outdoorAtCancel != 1 || inflightAtCancel != 1 {
		t.Fatalf("at the cancel %d isOutdoor requests and %d HITs in flight; want the cat waiting on its second conjunct", outdoorAtCancel, inflightAtCancel)
	}
	if got := posted(); got != atCancel {
		t.Fatalf("%d HITs posted after the cancel (%d before it)", got-atCancel, atCancel)
	}
	if !q.Canceled() || len(q.Errors()) != 0 || len(q.Result().Rows()) != 0 {
		t.Fatalf("canceled %v, errors %v, rows %v; want canceled with neither", q.Canceled(), q.Errors(), q.Result().Rows())
	}
}
