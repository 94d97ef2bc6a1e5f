package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// slowCrowd is a single near-perfect worker: HITs complete one at a
// time in post order, so results stream out over a long virtual span.
func slowCrowd() crowd.Config {
	return crowd.Config{Seed: 7, Workers: 1, MeanSkill: 0.99,
		SkillStd: 1e-9, BatchPenalty: 1e-9,
		SpamFraction: 1e-12, AbandonRate: 1e-12}
}

func TestRowsStreamBeforeCompletion(t *testing.T) {
	ds := workload.Photos(40, 0.5, 0.6, 3)
	e := newEngine(t, Config{Crowd: slowCrowd()}, ds)
	// Pace the simulation (~5ms real per HIT) so the consumer genuinely
	// interleaves with in-flight HITs instead of reading a finished run.
	e.Clock().SetPace(1e-4)
	defer e.Clock().SetPace(0)
	rows, err := e.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row; err=%v", rows.Err())
	}
	// One worker, forty sequential HITs: when the first survivor streams
	// out, later HITs must still be in flight.
	if rows.Handle().Exec.Result().Closed() {
		t.Fatal("query already complete at first row; nothing streamed")
	}
	firstAt, ok := rows.Handle().Exec.FirstRowAt()
	if !ok {
		t.Fatal("FirstRowAt not recorded")
	}
	e.Clock().SetPace(0) // first row seen streaming; finish at full speed
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("clean run, got %v", err)
	}
	if n < 10 {
		t.Fatalf("suspiciously few survivors: %d", n)
	}
	if end := e.Clock().Now(); firstAt >= end {
		t.Fatalf("first row at %v, not before completion at %v", firstAt, end)
	}
}

func TestQueryCancelMidStream(t *testing.T) {
	ds := workload.Photos(60, 0.5, 0.6, 3)
	e := newEngine(t, Config{Crowd: slowCrowd()}, ds)
	e.Clock().SetPace(1e-4)
	defer e.Clock().SetPace(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := e.Query(ctx, `SELECT img FROM photos WHERE isCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for rows.Next() {
		got++
		if got == 3 {
			cancel()
		}
	}
	e.Clock().SetPace(0) // drain the remains at full speed
	if err := rows.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !rows.Handle().Canceled() {
		t.Fatal("handle not marked canceled")
	}
	// Cancellation propagated to the marketplace: posting stops and the
	// open-HIT count drains (claims for disposed HITs are discarded).
	waitQuiesce(t, e)
	posted := e.Marketplace().Stats().HITsPosted
	time.Sleep(20 * time.Millisecond)
	if again := e.Marketplace().Stats().HITsPosted; again != posted {
		t.Fatalf("HITs posted after cancel: %d -> %d", posted, again)
	}
	if open := len(e.Marketplace().OpenHITs()); open != 0 {
		t.Fatalf("open HITs did not drain: %d", open)
	}
	if sunk := rows.Handle().SunkCents(); sunk <= 0 {
		t.Fatalf("canceled query should have sunk cost, got %v", sunk)
	}
	// The dashboard reports the cancellation with its sunk cost.
	snap := e.Snapshot()
	if len(snap.Queries) != 1 || !snap.Queries[0].Canceled {
		t.Fatalf("snapshot does not mark query canceled: %+v", snap.Queries)
	}
	if !strings.Contains(dashboard.Render(snap), "CANCELED, sunk") {
		t.Fatal("render lacks canceled status")
	}
}

// waitQuiesce waits until no assignments remain in flight anywhere.
func waitQuiesce(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.Manager().Inflight() == 0 && e.Clock().Pending() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("engine did not quiesce: inflight=%d pending=%d",
		e.Manager().Inflight(), e.Clock().Pending())
}

func TestQueryCancelMidJoin(t *testing.T) {
	ds := workload.Celebrities(8, 40, 0.3, 3)
	e := newEngine(t, Config{Crowd: slowCrowd()}, ds)
	e.Clock().SetPace(1e-4)
	defer e.Clock().SetPace(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := e.Query(ctx, `
SELECT celebrities.name, spottedstars.id
FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the first join match streams out: grid HITs for
	// later blocks are still open or unposted.
	if rows.Next() {
		cancel()
	}
	for rows.Next() {
	}
	e.Clock().SetPace(0) // drain the remains at full speed
	if err := rows.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	waitQuiesce(t, e)
	posted := e.Marketplace().Stats().HITsPosted
	time.Sleep(20 * time.Millisecond)
	if again := e.Marketplace().Stats().HITsPosted; again != posted {
		t.Fatalf("HITs posted after cancel: %d -> %d", posted, again)
	}
	if open := len(e.Marketplace().OpenHITs()); open != 0 {
		t.Fatalf("open HITs did not drain after join cancel: %d", open)
	}
	// The expired HITs refunded their uncompleted assignments: sunk cost
	// must stay below what the full grid sweep would have charged.
	full := int64(0)
	for _, ts := range e.Manager().Stats() {
		full += int64(ts.HITsPosted)
	}
	if sunk := rows.Handle().SunkCents(); sunk < 0 {
		t.Fatalf("negative sunk cost %v", sunk)
	}
}

func TestEngineCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		ds := workload.Photos(50, 0.5, 0.6, 3)
		e := newEngine(t, Config{Crowd: slowCrowd()}, ds)
		e.Clock().SetPace(1e-4)
		rows, err := e.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row; err=%v", rows.Err())
		}
		// Close with the query mid-flight: operators, sink and context
		// watcher must all exit.
		e.Close()
		for rows.Next() {
		}
		if err := rows.Err(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled after engine close, got %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestWithBudgetExhausted(t *testing.T) {
	ds := workload.Photos(30, 0.5, 0.6, 3)
	e := newEngine(t, Config{}, ds)
	// Default policy is 3 assignments × 1¢ per HIT: a 5¢ cap pays for at
	// most one HIT and dies mid-query with the typed error.
	rows, err := e.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`,
		WithBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if spent := rows.Handle().SunkCents(); spent > 5 {
		t.Fatalf("per-query budget overrun: spent %v of 5¢", spent)
	}
	// The engine-wide account only paid what the scope did.
	if got := e.Manager().Account().Spent(); got > 5 {
		t.Fatalf("engine account charged %v despite 5¢ query cap", got)
	}
}

func TestWithDeadlineVirtualTime(t *testing.T) {
	ds := workload.Photos(60, 0.5, 0.6, 3)
	e := newEngine(t, Config{Crowd: slowCrowd()}, ds)
	// One worker needs ~45 virtual seconds per HIT; 60 HITs ≫ 10 minutes.
	rows, err := e.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`,
		WithDeadline(10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if now := e.Clock().Now().Minutes(); now < 10 {
		t.Fatalf("deadline fired early: virtual now %.1f min", now)
	}
}

func TestWithPolicyPerQuery(t *testing.T) {
	ds := workload.Photos(12, 0.5, 0.6, 3)
	e := newEngine(t, Config{}, ds)
	// Single-assignment policy for this query only: every isCat HIT
	// posts with redundancy 1.
	rows, err := e.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`,
		WithPolicy("isCat", taskmgr.Policy{Assignments: 1, BatchSize: 1, PriceCents: 1,
			Linger: time.Minute, UseCache: true}))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	st := e.Manager().StatsFor("iscat")
	if st.HITsPosted == 0 {
		t.Fatal("no HITs posted")
	}
	mkt := e.Marketplace().Stats()
	if int64(mkt.AssignmentsCompleted) != st.HITsPosted {
		t.Fatalf("want 1 assignment per HIT under the per-query policy, got %d for %d HITs",
			mkt.AssignmentsCompleted, st.HITsPosted)
	}
}

func TestParseErrorPosition(t *testing.T) {
	ds := workload.Photos(4, 0.5, 0.6, 3)
	e := newEngine(t, Config{}, ds)
	_, err := e.Query(context.Background(), "SELECT img FROM")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.Line != 1 || pe.Col == 0 {
		t.Fatalf("missing position: %+v", pe)
	}
}

// TestQueryAndWaitSurfacesOperatorError is the regression test for the
// old silent-partial-rows behavior: when the engine budget dies
// mid-query, QueryAndWait must return the completed prefix AND the
// first operator error, typed.
func TestQueryAndWaitSurfacesOperatorError(t *testing.T) {
	ds := workload.Photos(30, 0.5, 0.6, 3)
	e := newEngine(t, Config{BudgetCents: budget.Cents(9)}, ds)
	rows, err := e.QueryAndWait(`SELECT img FROM photos WHERE isCat(img)`)
	if err == nil {
		t.Fatalf("want a budget error, got %d rows and no error", len(rows))
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// And the handle-level path agrees.
	h := e.Queries()[len(e.Queries())-1]
	if err := h.Err(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("handle Err: want ErrBudgetExhausted, got %v", err)
	}
}

func TestWithAdaptiveJoinsOverride(t *testing.T) {
	// Big enough that DecidePreFilter's prior predicts the filter pays.
	ds := workload.Celebrities(20, 200, 0.3, 3)
	// Engine-wide adaptive joins OFF; the per-query option turns the
	// pre-filter rewrite on for this query alone.
	e := newEngine(t, Config{}, ds)
	rows, err := e.Query(context.Background(), `
SELECT celebrities.name, spottedstars.id
FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`,
		WithAdaptiveJoins(true))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dashboard.Render(e.Snapshot()), "PreFilter") {
		t.Fatal("per-query WithAdaptiveJoins(true) did not apply the rewrite")
	}
}

// Closing Rows after the stream ended releases the result rows at
// once; the dashboard, Rows.Err and the result count do not change.
func TestRowsCloseReleasesResultsAfterEnd(t *testing.T) {
	ds := workload.Photos(12, 0.5, 0.5, 2)
	e := newEngine(t, Config{}, ds)
	rows, err := e.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if n == 0 {
		t.Fatal("no rows")
	}
	h := rows.Handle()
	<-h.Exec.Done()
	waitQuiesce(t, e)
	res := h.Result()
	if len(res.Rows()) != n {
		t.Fatalf("result holds %d rows before Close, want %d", len(res.Rows()), n)
	}
	before := dashboard.Render(e.Snapshot())
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rows()); got != 0 {
		t.Fatalf("Close after the end kept %d result rows", got)
	}
	if res.Len() != n {
		t.Fatalf("result count = %d after Close, want %d", res.Len(), n)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Rows.Err = %v after Close of a finished query", err)
	}
	snap := e.Snapshot()
	if after := dashboard.Render(snap); after != before {
		t.Fatalf("dashboard changed on Close:\n%s\n---\n%s", before, after)
	}
	if snap.Queries[0].Results != n || snap.Queries[0].Canceled {
		t.Fatalf("dashboard query = %+v", snap.Queries[0])
	}
	if h.Rows().Next() {
		t.Fatal("a cursor opened after Close still reads rows")
	}
}

// Closing Rows before the stream ends cancels the query, and its result
// rows are released once the stream has ended; the count stays.
func TestRowsCloseReleasesResultsBeforeEnd(t *testing.T) {
	ds := workload.Photos(40, 0.5, 0.6, 3)
	e := newEngine(t, Config{Crowd: slowCrowd()}, ds)
	e.Clock().SetPace(1e-4)
	defer e.Clock().SetPace(0)
	rows, err := e.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row; err=%v", rows.Err())
	}
	h := rows.Handle()
	res := h.Result()
	if res.Closed() {
		t.Fatal("query already complete at first row; Close would not precede the end")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	e.Clock().SetPace(0)
	<-h.Exec.Done()
	if got := len(res.Rows()); got != 0 {
		t.Fatalf("stream ended after Close but kept %d result rows", got)
	}
	if res.Len() < 1 {
		t.Fatalf("result count = %d, want the rows streamed before the end", res.Len())
	}
	if err := rows.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Rows.Err = %v, want ErrCanceled", err)
	}
	waitQuiesce(t, e)
	snap := e.Snapshot()
	if q := snap.Queries[0]; q.Results != res.Len() || !q.Canceled || !q.Done {
		t.Fatalf("dashboard query = %+v, want %d results, canceled", q, res.Len())
	}
}
