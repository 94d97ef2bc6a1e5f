package core

import (
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/workload"
)

const taskSrc = `
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO and the CEO's phone number for the company %s", companyName
  Response: Form(("CEO", String), ("Phone", String))

TASK isCeleb(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a public figure? %s", photo
  Response: YesNo

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
  PreFilter: isCeleb

TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
`

func newEngine(t *testing.T, cfg Config, datasets ...workload.Dataset) *Engine {
	t.Helper()
	var oracles []crowd.Oracle
	for _, ds := range datasets {
		oracles = append(oracles, ds.Oracle)
	}
	cfg.Oracle = workload.Combine(oracles...)
	if cfg.Crowd.Seed == 0 {
		cfg.Crowd = crowd.Config{Seed: 5, Workers: 200, MeanSkill: 0.97,
			SkillStd: 0.01, BatchPenalty: 1e-6,
			SpamFraction: 1e-12, AbandonRate: 1e-12}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for _, ds := range datasets {
		for _, tab := range ds.Tables {
			if err := e.Register(tab); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Define(taskSrc); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineQuery1EndToEnd(t *testing.T) {
	ds := workload.Companies(8, 3)
	e := newEngine(t, Config{}, ds)
	rows, err := e.QueryAndWait(`
SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone
FROM companies`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Majority answers should match ground truth for most companies.
	correct := 0
	for _, row := range rows {
		truth := ds.Oracle.Truth("findCEO", []relation.Value{row.Values[0]})
		if row.Get("findCEO.CEO").Equal(truth.Field("CEO")) {
			correct++
		}
	}
	if correct < 6 {
		t.Fatalf("only %d/8 CEOs correct", correct)
	}
}

func TestEngineQuery2EndToEnd(t *testing.T) {
	ds := workload.Celebrities(6, 12, 0.5, 4)
	e := newEngine(t, Config{}, ds)
	rows, err := e.QueryAndWait(`
SELECT celebrities.name, spottedstars.id
FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against ground truth matches.
	truthMatches := 0
	for _, crow := range ds.Tables[0].Snapshot() {
		for _, srow := range ds.Tables[1].Snapshot() {
			if ds.Oracle.Truth("samePerson", []relation.Value{crow.Get("image"), srow.Get("image")}).Truthy() {
				truthMatches++
			}
		}
	}
	if len(rows) < truthMatches-2 || len(rows) > truthMatches+2 {
		t.Fatalf("join produced %d rows, truth %d", len(rows), truthMatches)
	}
}

// TestEngineAdaptiveJoins runs the celebrity join with and without
// cost-based pre-filtering: the adaptive engine must buy far fewer join
// pairs while finding (essentially) the same matches, and the dashboard
// must report the cross-product reduction.
func TestEngineAdaptiveJoins(t *testing.T) {
	const (
		nCelebs  = 20
		nSpotted = 200
	)
	ds := workload.Celebrities(nCelebs, nSpotted, 0.05, 6)
	truthMatches := 0
	for _, crow := range ds.Tables[0].Snapshot() {
		for _, srow := range ds.Tables[1].Snapshot() {
			if ds.Oracle.Truth("samePerson", []relation.Value{crow.Get("image"), srow.Get("image")}).Truthy() {
				truthMatches++
			}
		}
	}
	joinQuery := `
SELECT celebrities.name, spottedstars.id
FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)`

	// A near-perfect crowd keeps answer noise out of the cost
	// comparison (the crowd clamp caps skill at 0.99); the zero-vs-cheap
	// tradeoff being measured is pairs bought, not vote quality.
	accurate := crowd.Config{Seed: 5, Workers: 200, MeanSkill: 0.999,
		SkillStd: 1e-9, BatchPenalty: 1e-9, SpamFraction: 1e-12, AbandonRate: 1e-12}

	base := newEngine(t, Config{Crowd: accurate}, ds)
	baseRows, err := base.QueryAndWait(joinQuery)
	if err != nil {
		t.Fatal(err)
	}

	adaptive := newEngine(t, Config{Crowd: accurate, AdaptiveJoins: true}, ds)
	// Give the mid-query re-check a solid evidence floor: the left
	// (all-celebrity) side inflates the shared selectivity estimate
	// until enough junk sightings have been observed.
	adaptive.Optimizer().MinPreFilterTrials = 60
	h, err := adaptive.Run(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(h.Plan), "PreFilter(isCeleb") {
		t.Fatalf("rewrite did not fire:\n%s", plan.Explain(h.Plan))
	}
	adaptiveRows := h.Wait()
	if errs := h.Exec.Errors(); len(errs) > 0 {
		t.Fatalf("adaptive errors: %v", errs)
	}

	for name, rows := range map[string][]relation.Tuple{"baseline": baseRows, "adaptive": adaptiveRows} {
		// Workers cap at 99% accuracy, so allow a little answer noise;
		// the strict rerun-identical comparison lives in the
		// deterministic load harness (internal/load).
		if len(rows) < truthMatches-3 || len(rows) > truthMatches+6 {
			t.Fatalf("%s rows = %d, truth %d", name, len(rows), truthMatches)
		}
	}

	basePairs := base.Manager().StatsFor("sameperson").Submitted
	adaptivePairs := adaptive.Manager().StatsFor("sameperson").Submitted
	if basePairs != int64(nCelebs*nSpotted) {
		t.Fatalf("baseline pairs = %d, want the full cross product", basePairs)
	}
	if adaptivePairs > basePairs/2 {
		t.Fatalf("adaptive pairs = %d, want well under baseline %d", adaptivePairs, basePairs)
	}
	if f := adaptive.Manager().StatsFor("isceleb"); f.Submitted == 0 {
		t.Fatal("feature filter never ran")
	}

	snap := adaptive.Snapshot()
	if snap.Savings.JoinPairsAvoided == 0 || snap.Savings.JoinSavedCents == 0 {
		t.Fatalf("join savings = %+v", snap.Savings)
	}
	text := dashboard.Render(snap)
	if !strings.Contains(text, "Adaptive joins: avoided") {
		t.Fatalf("dashboard missing cross-product reduction:\n%s", text)
	}
	// The baseline engine's dashboard must not show the panel.
	if strings.Contains(dashboard.Render(base.Snapshot()), "Adaptive joins:") {
		t.Fatal("baseline dashboard shows a join reduction")
	}
}

func TestEngineRunScript(t *testing.T) {
	ds := workload.Photos(10, 0.5, 0.5, 2)
	e := newEngine(t, Config{}, ds)
	handles, err := e.RunScript(`
SELECT img FROM photos WHERE isCat(img);
SELECT count() AS n FROM photos
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 2 {
		t.Fatalf("handles = %d", len(handles))
	}
	handles[0].Wait()
	rows := handles[1].Wait()
	if len(rows) != 1 || rows[0].Get("n").Int() != 10 {
		t.Fatalf("count = %v", rows)
	}
	if len(e.Queries()) != 2 {
		t.Fatalf("queries = %d", len(e.Queries()))
	}
}

func TestEngineErrors(t *testing.T) {
	ds := workload.Photos(2, 0.5, 0.5, 2)
	e := newEngine(t, Config{}, ds)
	if _, err := e.Run(`SELECT nope FROM photos`); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := e.Run(`SELEC x`); err == nil {
		t.Error("parse error accepted")
	}
	if err := e.Define(taskSrc); err == nil {
		t.Error("duplicate task definitions accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("engine without oracle accepted")
	}
	e.Close()
	if _, err := e.Run(`SELECT img FROM photos`); err == nil {
		t.Error("closed engine accepted a query")
	}
}

func TestEngineAutoTune(t *testing.T) {
	ds := workload.Photos(2, 0.5, 0.5, 2)
	e := newEngine(t, Config{AutoTune: true}, ds)
	def, _ := findTask(e, "isCat")
	pol := e.Manager().PolicyFor(def)
	if pol.Assignments < 3 || pol.BatchSize <= 1 {
		t.Fatalf("auto-tuned policy = %+v", pol)
	}
	ceoDef, _ := findTask(e, "findCEO")
	if e.Manager().PolicyFor(ceoDef).BatchSize != 1 {
		t.Fatal("question tasks must not batch")
	}
}

func findTask(e *Engine, name string) (def *qlang.TaskDef, ok bool) {
	for _, d := range e.Tasks() {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return nil, false
}

func TestEngineAttachModels(t *testing.T) {
	ds := workload.Photos(2, 0.5, 0.5, 2)
	e := newEngine(t, Config{AttachModels: true}, ds)
	if _, ok := e.Manager().Models().For("isCat"); !ok {
		t.Fatal("boolean task has no model")
	}
	if _, ok := e.Manager().Models().For("findCEO"); ok {
		t.Fatal("tuple task should not get a model")
	}
	// JoinPredicate returns Bool → gets a model too.
	if _, ok := e.Manager().Models().For("samePerson"); !ok {
		t.Fatal("join predicate has no model")
	}
}

func TestEngineSnapshotAndDashboard(t *testing.T) {
	ds := workload.Photos(6, 0.5, 0.5, 2)
	e := newEngine(t, Config{}, ds)
	if _, err := e.QueryAndWait(`SELECT img FROM photos WHERE isCat(img)`); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Market.HITsPosted == 0 {
		t.Fatal("snapshot missing market stats")
	}
	if len(snap.Queries) != 1 || !snap.Queries[0].Done {
		t.Fatalf("snapshot queries = %+v", snap.Queries)
	}
	if snap.Budget.Spent <= 0 {
		t.Fatal("snapshot missing spend")
	}
	text := dashboard.Render(snap)
	for _, want := range []string{"Qurk Query Status Dashboard", "iscat", "Query 1", "Scan(photos)"} {
		if !strings.Contains(text, want) {
			t.Errorf("dashboard missing %q:\n%s", want, text)
		}
	}
}

func TestEngineHTTPDashboard(t *testing.T) {
	ds := workload.Photos(4, 0.5, 0.5, 2)
	e := newEngine(t, Config{}, ds)
	if _, err := e.QueryAndWait(`SELECT img FROM photos WHERE isCat(img)`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dashboard.NewHandler(e))
	defer srv.Close()
	for _, path := range []string{"/", "/tasks"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := srv.Client().Get(srv.URL + "/hit?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Errorf("unknown hit status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestEngineCacheAcrossQueries(t *testing.T) {
	ds := workload.Companies(5, 9)
	e := newEngine(t, Config{}, ds)
	q := `SELECT companyName, findCEO(companyName).CEO FROM companies`
	if _, err := e.QueryAndWait(q); err != nil {
		t.Fatal(err)
	}
	spent := e.Manager().Account().Spent()
	if _, err := e.QueryAndWait(q); err != nil {
		t.Fatal(err)
	}
	if e.Manager().Account().Spent() != spent {
		t.Fatal("second identical query should be fully cached (paper: results cached across queries)")
	}
	snap := e.Snapshot()
	if snap.Savings.CacheHits == 0 || snap.Savings.CacheSavedCents == 0 {
		t.Fatalf("savings = %+v", snap.Savings)
	}
}

func TestEngineLoadCSV(t *testing.T) {
	ds := workload.Photos(1, 1, 1, 1)
	e := newEngine(t, Config{}, ds)
	tab, err := e.LoadCSV("pets", strings.NewReader("name:String,age:Int\nrex,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatal("csv load failed")
	}
	rows, err := e.QueryAndWait(`SELECT name FROM pets WHERE age > 2`)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if _, err := e.LoadCSV("pets", strings.NewReader("a\nb\n")); err == nil {
		t.Error("duplicate table name accepted")
	}
	if _, err := e.LoadCSV("bad", strings.NewReader("")); err == nil {
		t.Error("empty csv accepted")
	}
}

func TestEngineCachePersistence(t *testing.T) {
	dir := t.TempDir()
	ds := workload.Companies(4, 21)
	e := newEngine(t, Config{StorePath: dir}, ds)
	q := `SELECT companyName, findCEO(companyName).CEO FROM companies`
	rows1, err := e.QueryAndWait(q)
	if err != nil {
		t.Fatal(err)
	}
	e.Close() // drains and syncs the store

	// A brand-new engine over the same store answers the same query for
	// free — paid answers (here whole tuples) survive process restarts.
	ds2 := workload.Companies(4, 21) // same seed: same companies
	e2 := newEngine(t, Config{StorePath: dir}, ds2)
	rows2, err := e2.QueryAndWait(q)
	if err != nil {
		t.Fatal(err)
	}
	if spent := e2.Manager().Account().Spent(); spent != 0 {
		t.Fatalf("warm-cache engine spent %v", spent)
	}
	// Rows arrive in HIT completion order, so compare them as sets.
	if cold, warm := rowStrings(rows1), rowStrings(rows2); !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm run returned %v, the cold run %v", warm, cold)
	}
}

// rowStrings renders rows as sorted strings.
func rowStrings(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var enc []byte
		for _, v := range row.Values {
			enc = v.Encode(enc)
		}
		out[i] = string(enc)
	}
	sort.Strings(out)
	return out
}
