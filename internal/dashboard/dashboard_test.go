package dashboard

import (
	"html"
	"io"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/crowd"
	"repro/internal/exec"
	"repro/internal/hit"
	"repro/internal/model"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

func sampleSnapshot() Snapshot {
	return Snapshot{
		NowMinutes: 12.5,
		Budget:     BudgetInfo{Limit: 1000, Spent: 250, Remaining: 750},
		Market: mturk.Stats{HITsPosted: 10, AssignmentsCompleted: 30,
			QuestionsAnswered: 50, ExternalSubmissions: 2},
		Tasks: []taskmgr.TaskStats{{
			Task: "iscat", QuestionsAsked: 50, HITsPosted: 10, CacheHits: 5,
			ModelAnswers: 3, SpentCents: 250, Selectivity: 0.4, SelTrials: 50,
			MeanLatencyMin: 2.5, MeanAgreement: 0.9,
		}},
		Cache:  cache.Stats{Entries: 55, Hits: 5, Misses: 50, SavedQuestions: 15},
		Models: []model.Stats{{Task: "iscat", Examples: 50, Automated: 3, Declined: 47}},
		Queries: []QueryInfo{{
			ID: 1, SQL: "SELECT img FROM photos WHERE isCat(img)",
			PlanExplain: "Filter(isCat(img))\n  Scan(photos)\n",
			Ops: []exec.OpStats{
				{Label: "Filter(isCat(img))", In: 100, Out: 40, Done: true},
				{Label: "Scan(photos)", In: 100, Out: 100, Done: true},
			},
			Done: true, Results: 40, ElapsedMin: 12.5,
		}},
		Savings: Savings{CacheSavedCents: 15, ModelSavedCents: 9, CacheHits: 5, ModelAnswers: 3,
			JoinPairsAvoided: 3000, JoinSavedCents: 360},
		EstimatedRemainingCents: 7,
	}
}

func TestRenderContainsAllPanels(t *testing.T) {
	out := Render(sampleSnapshot())
	for _, want := range []string{
		"t=12.5 virtual min",
		"spent $2.50 of $10.00 (remaining $7.50)",
		"10 HITs posted, 30 assignments done, 50 questions answered, 2 from the audience",
		// One lookup hit serves the whole stored answer list, so the
		// caching-benefit panel reports answers served, not lookups.
		"cache saved ~$0.15 (5 hits, 15 answers served)",
		"classifiers saved ~$0.09 (3 answers)",
		"Adaptive joins: avoided 3000 cross-product pairs (~$3.60 of join HITs)",
		"iscat",
		"Query 1 [done, 12.5 min, 40 results, 0 errors]",
		"Scan(photos)",
		"in=100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestRenderUnlimitedBudget(t *testing.T) {
	s := sampleSnapshot()
	s.Budget.Limit = 0
	out := Render(s)
	if !strings.Contains(out, "(no limit)") {
		t.Error("unlimited budget not shown")
	}
}

func TestComputeSavings(t *testing.T) {
	tasks := []taskmgr.TaskStats{
		{Task: "a", CacheHits: 10, ModelAnswers: 4},
		{Task: "b", CacheHits: 2, ModelAnswers: 0},
	}
	s := ComputeSavings(tasks, func(task string) taskmgr.Policy {
		return taskmgr.Policy{PriceCents: 2, Assignments: 3, BatchSize: 2}
	})
	// per question = 2*3/2 = 3 cents
	if s.CacheSavedCents != 36 || s.ModelSavedCents != 12 {
		t.Fatalf("savings = %+v", s)
	}
	if s.CacheHits != 12 || s.ModelAnswers != 4 {
		t.Fatalf("counters = %+v", s)
	}
}

func TestSortTasksBySpend(t *testing.T) {
	tasks := []taskmgr.TaskStats{
		{Task: "cheap", SpentCents: 1},
		{Task: "dear", SpentCents: 100},
	}
	SortTasksBySpend(tasks)
	if tasks[0].Task != "dear" {
		t.Fatalf("order = %v", tasks)
	}
}

// liveSource is a minimal Source over a real marketplace for HTTP tests.
type liveSource struct {
	market *mturk.Marketplace
}

func (s liveSource) Snapshot() Snapshot              { return sampleSnapshot() }
func (s liveSource) Marketplace() *mturk.Marketplace { return s.market }

// catHIT is a one-question yes/no HIT.
func catHIT() *hit.HIT {
	return &hit.HIT{
		Task: "isCat", Type: qlang.TaskFilter,
		Title: "Cat?", Question: "Is this a cat?",
		Response:    qlang.Response{Kind: qlang.ResponseYesNo},
		Items:       []hit.Item{{Args: []relation.Value{relation.NewImage("x.png")}}},
		RewardCents: 1, Assignments: 1,
	}
}

func newLiveSource(t *testing.T) (liveSource, *hit.HIT) {
	t.Helper()
	h := catHIT()
	src, _ := postLive(t, h)
	return src, h
}

// sheetLog records the answer sheets a live HIT receives.
type sheetLog struct {
	mu     sync.Mutex
	sheets []hit.Answers
}

func (l *sheetLog) add(res mturk.AssignmentResult) {
	l.mu.Lock()
	l.sheets = append(l.sheets, res.Answers)
	l.mu.Unlock()
}

// postLive gives h an ID and posts it to a fresh marketplace whose pool
// never supplies a worker, which keeps the HIT open for the audience.
func postLive(t *testing.T, h *hit.HIT) (liveSource, *sheetLog) {
	t.Helper()
	clock := mturk.NewClock()
	pool := crowd.NewPool(crowd.Config{Workers: 1, Seed: 1,
		Overhead: 1 << 40}, crowd.OracleFunc(
		func(task string, args []relation.Value) relation.Value { return relation.NewBool(true) }))
	market := mturk.NewMarketplace(clock, pool)
	h.ID = market.NewHITID()
	log := &sheetLog{}
	if err := market.Post(h, log.add); err != nil {
		t.Fatal(err)
	}
	return liveSource{market: market}, log
}

// formInput matches one radio or checkbox the HIT page renders: its
// name, its value and the label text after it.
var formInput = regexp.MustCompile(`<input type="(?:radio|checkbox)" name="([^"]*)" value="([^"]*)">([^<]*)</label>`)

// TestHTTPTaskFlow answers a yes/no HIT and a 2×2 join grid through the
// served pages. It submits the input names the /hit page renders, so the
// names hit.Compile writes and the names hit.ParseForm reads cannot
// drift apart, and each ticked input must answer its own question.
func TestHTTPTaskFlow(t *testing.T) {
	img := func(name string) hit.Item { return hit.Item{Args: []relation.Value{relation.NewImage(name)}} }
	cases := []struct {
		name string
		h    *hit.HIT
		pick func(value, label string) bool // the inputs to submit
		want []bool
	}{
		{name: "yes-no", h: catHIT(),
			pick: func(value, _ string) bool { return value == "yes" },
			want: []bool{true}},
		{name: "join grid",
			h: &hit.HIT{Task: "samePerson", Type: qlang.TaskJoinPredicate, Title: "Match", Question: "Match the pictures.",
				Response:    qlang.Response{Kind: qlang.ResponseJoinColumns, LeftLabel: "Celebrity", RightLabel: "Spotted"},
				Left:        []hit.Item{img("c1.png"), img("c2.png")},
				Right:       []hit.Item{img("s1.png"), img("s2.png")},
				RewardCents: 1, Assignments: 1},
			// Cell (1, 0) is question 1·2+0 = 2.
			pick: func(_, label string) bool { return strings.TrimSpace(label) == "c2.png ↔ s1.png" },
			want: []bool{false, false, true, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, log := postLive(t, tc.h)
			srv := httptest.NewServer(NewHandler(src))
			defer srv.Close()
			get := func(path string) string {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				return string(body)
			}

			// The task list shows the open HIT.
			if body := get("/tasks"); !strings.Contains(body, tc.h.ID) {
				t.Fatalf("/tasks missing %s:\n%s", tc.h.ID, body)
			}

			// The HIT form renders; the submission uses its input names.
			page := get("/hit?id=" + tc.h.ID)
			if !strings.Contains(page, tc.h.Question) {
				t.Fatalf("/hit missing question:\n%s", page)
			}
			form := url.Values{}
			form.Set("hit", tc.h.ID)
			for _, m := range formInput.FindAllStringSubmatch(page, -1) {
				if tc.pick(html.UnescapeString(m[2]), html.UnescapeString(m[3])) {
					form.Set(html.UnescapeString(m[1]), html.UnescapeString(m[2]))
				}
			}
			if len(form) != 2 {
				t.Fatalf("picked %v from the page:\n%s", form, page)
			}

			// Submitting the form completes the assignment.
			resp, err := srv.Client().PostForm(srv.URL+"/submit", form)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("submit status = %d", resp.StatusCode)
			}
			st, _ := src.market.Status(tc.h.ID)
			if st.Completed != 1 {
				t.Fatalf("assignment not recorded: %+v", st)
			}
			if stats := src.market.Stats(); stats.ExternalSubmissions != 1 {
				t.Fatalf("external submissions = %d", stats.ExternalSubmissions)
			}
			log.mu.Lock()
			if len(log.sheets) != 1 || len(log.sheets[0].Values) != len(tc.want) {
				t.Fatalf("sheets = %v, want one of %d answers", log.sheets, len(tc.want))
			}
			for i, v := range log.sheets[0].Values {
				if v.Truthy() != tc.want[i] {
					t.Errorf("question %d = %v, want %v", i, v, tc.want[i])
				}
			}
			log.mu.Unlock()

			// Second submission is rejected: no open assignments remain.
			resp, err = srv.Client().PostForm(srv.URL+"/submit", form)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == 200 {
				t.Fatal("second submit should be rejected")
			}
		})
	}
}

func TestHTTPErrors(t *testing.T) {
	src, _ := newLiveSource(t)
	srv := httptest.NewServer(NewHandler(src))
	defer srv.Close()

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/hit?id=nope"); code != 404 {
		t.Errorf("/hit unknown = %d", code)
	}
	if code := get("/submit"); code != 405 {
		t.Errorf("GET /submit = %d", code)
	}
	if code := get("/nope"); code != 404 {
		t.Errorf("/nope = %d", code)
	}
	form := url.Values{}
	form.Set("hit", "nope")
	resp, err := srv.Client().PostForm(srv.URL+"/submit", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("submit unknown hit = %d", resp.StatusCode)
	}
	// Malformed form input (missing yes/no answer) is a 400.
	src2, h := newLiveSource(t)
	srv2 := httptest.NewServer(NewHandler(src2))
	defer srv2.Close()
	form2 := url.Values{}
	form2.Set("hit", h.ID)
	resp, err = srv2.Client().PostForm(srv2.URL+"/submit", form2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad form = %d", resp.StatusCode)
	}
}
