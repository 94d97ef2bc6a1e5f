package core

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/internal/obs"
	"repro/internal/workload"
)

// tracedFamilies are the metric families a traced engine rendered
// while the registry existed only under Config.Trace.
var tracedFamilies = []string{
	obs.MetricQueries, obs.MetricPlanCacheHits, obs.MetricPlanCacheMiss,
	obs.MetricBatchesPosted, obs.MetricHITsPosted, obs.MetricAssignments,
	obs.MetricCostCents, obs.MetricRefundCents, obs.MetricCacheHits,
	obs.MetricModelAnswers, obs.MetricExtensions, obs.MetricInflightHITs,
	obs.MetricHITRoundTrip, obs.MetricAdmissionWait, obs.MetricBatchFillRatio,
	obs.MetricExtensionDepth,
}

// metricsTasks are an adaptive EM filter and a plain one.
const metricsTasks = crowdPathEM + `
TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", photo
  Response: YesNo
  Batch: 5
`

// runMetricsWorkload runs, on one engine with task models attached,
// three queries that between them count in every family: a labeled
// adaptive EM filter; the same shape over more rows, which hits the
// plan cache, the task cache and the now trained model and posts the
// rest after the clock has moved; and a filter that a virtual deadline
// cancels with its HITs open. It returns the engine and its registry
// as rendered before the third query: how many of that query's items
// reach the crowd before its deadline fires is not fixed across runs
// (under -race, now and then 25 of the 120), so only the first two
// queries are compared across engines.
func runMetricsWorkload(t *testing.T, trace bool) (e *Engine, settled string) {
	t.Helper()
	ds := workload.Photos(120, 0.5, 0.6, 1)
	e, err := New(Config{Oracle: ds.Oracle, Crowd: crowd.Config{Seed: 1}, Trace: trace,
		AttachModels: true, ModelMinExamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for _, tab := range ds.Tables {
		if err := e.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Define(metricsTasks); err != nil {
		t.Fatal(err)
	}
	run := func(sql string, opts ...QueryOption) {
		rows, err := e.Query(context.Background(), sql, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		waitFor(t, "every operator is done", func() bool { return allOpsDone(rows.Handle()) })
		rows.Close()
	}
	run(`SELECT id FROM photos WHERE id <= 40 AND isCat(img)`, WithLabel("tenant"))
	run(`SELECT id FROM photos WHERE id <= 80 AND isCat(img)`)
	settled = render(t, e)
	run(`SELECT id FROM photos WHERE isOutdoor(img)`, WithDeadline(30*time.Second))
	return e, settled
}

// render reads e's registry in the text format, without the planning
// time the plan cache saved, which is wall time.
func render(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if !strings.Contains(line, obs.MetricPlanSavedNs) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// TestMetricsWithoutTrace: the registry is always on. An engine built
// without Config.Trace counts what a traced engine counts, series for
// series and value for value, renders every family a traced engine
// rendered, gives a labeled query its per-scope cost series, and
// /metrics serves it.
func TestMetricsWithoutTrace(t *testing.T) {
	untraced, settled := runMetricsWorkload(t, false)
	if _, want := runMetricsWorkload(t, true); settled != want {
		t.Errorf("untraced registry differs from the traced one:\n%s\nwant\n%s", settled, want)
	}
	got := render(t, untraced)
	for _, family := range tracedFamilies {
		if !strings.Contains(got, "# TYPE "+family+" ") {
			t.Errorf("untraced registry lacks %s:\n%s", family, got)
		}
	}
	if !strings.Contains(got, `qurk_cost_cents_total{scope="tenant",task="iscat"} `) {
		t.Errorf("labeled query has no per-scope cost series:\n%s", got)
	}
	srv := httptest.NewServer(dashboard.NewHandler(untraced))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), obs.MetricHITsPosted) {
		t.Fatalf("/metrics without tracing = %d:\n%s", resp.StatusCode, body)
	}
}

// promValues parses a text-format render into series → value.
func promValues(t *testing.T, e *Engine) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad series line %q", line)
		}
		out[line[:sp]] = v
	}
	return out
}

// family sums the series of one family whose label string contains
// every one of match.
func family(vals map[string]float64, name string, match ...string) int64 {
	var sum float64
	for series, v := range vals {
		labels := ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series, labels = series[:i], series[i:]
		}
		if series != name {
			continue
		}
		ok := true
		for _, m := range match {
			ok = ok && strings.Contains(labels, m)
		}
		if ok {
			sum += v
		}
	}
	return int64(sum)
}

// TestStatsReadTheMetricsSeries: after each crowd-path shape, the
// task, inference, sharing and plan-cache statistics are exactly the
// /metrics series they read, the HITs posted per task add up to the
// marketplace's count, and the cost series less the refunds add up to
// the account's spend.
func TestStatsReadTheMetricsSeries(t *testing.T) {
	for _, sh := range crowdPathShapes() {
		t.Run(sh.name, func(t *testing.T) {
			runCrowdPath(t, sh, 1, func(e *Engine) {
				vals := promValues(t, e)
				var hits, cost int64
				for _, ts := range e.Manager().Stats() {
					task := fmt.Sprintf("task=%q", ts.Task)
					for _, c := range []struct {
						name   string
						stat   int64
						family string
					}{
						{"Submitted", ts.Submitted, obs.MetricSubmissions},
						{"HITsPosted", ts.HITsPosted, obs.MetricHITsPosted},
						{"QuestionsAsked", ts.QuestionsAsked, obs.MetricQuestions},
						{"CacheHits", ts.CacheHits, obs.MetricCacheHits},
						{"ModelAnswers", ts.ModelAnswers, obs.MetricModelAnswers},
					} {
						if got := family(vals, c.family, task); got != c.stat {
							t.Errorf("%s %s = %d, %s = %d", ts.Task, c.name, c.stat, c.family, got)
						}
					}
					if got := int64(vals[fmt.Sprintf("%s{%s}", obs.MetricCostCents, task)]); got != int64(ts.SpentCents) {
						t.Errorf("%s SpentCents = %d, %s = %d", ts.Task, ts.SpentCents, obs.MetricCostCents, got)
					}
					hits += ts.HITsPosted
					cost += int64(ts.SpentCents)
				}
				if posted := e.Marketplace().Stats().HITsPosted; hits != int64(posted) {
					t.Errorf("tasks posted %d HITs, the marketplace %d", hits, posted)
				}
				if spent := e.Manager().Account().Spent(); budget.Cents(cost-family(vals, obs.MetricRefundCents)) != spent {
					t.Errorf("cost %d¢ less refunds %d¢, account spent %v", cost, family(vals, obs.MetricRefundCents), spent)
				}
				is, sh, pc := e.Manager().InferenceStats(), e.Manager().Sharing(), e.PlanCacheStats()
				for _, c := range []struct {
					name   string
					stat   int64
					family string
				}{
					{"AdaptiveHITs", is.AdaptiveHITs, obs.MetricAdaptiveHITs},
					{"Extensions", is.Extensions, obs.MetricExtensions},
					{"ExtendFailures", is.ExtendFailures, obs.MetricExtendFailures},
					{"AssignmentsUsed", is.AssignmentsUsed, obs.MetricAdaptiveAssigned},
					{"AssignmentsCap", is.AssignmentsCap, obs.MetricAdaptiveCap},
					{"inference SavedCents", int64(is.SavedCents), obs.MetricInferenceSaved},
					{"SharedHITs", sh.SharedHITs, obs.MetricSharedHITs},
					{"CoBatchedItems", sh.CoBatchedItems, obs.MetricCoBatchedItems},
					{"HITsSaved", sh.HITsSaved, obs.MetricSharedHITsSaved},
					{"sharing SavedCents", int64(sh.SavedCents), obs.MetricSharedSavedCents},
					{"plan cache Hits", pc.Hits, obs.MetricPlanCacheHits},
					{"plan cache Misses", pc.Misses, obs.MetricPlanCacheMiss},
					{"plan cache Invalidations", pc.Invalidations, obs.MetricPlanCacheInval},
				} {
					if got := family(vals, c.family); got != c.stat {
						t.Errorf("%s = %d, %s = %d", c.name, c.stat, c.family, got)
					}
				}
				if saved := float64(family(vals, obs.MetricPlanSavedNs)) / 1e6; saved != pc.SavedMs {
					t.Errorf("plan cache SavedMs = %v, %s = %v ms", pc.SavedMs, obs.MetricPlanSavedNs, saved)
				}
			})
		})
	}
}
