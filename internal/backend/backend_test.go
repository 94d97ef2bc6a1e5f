package backend

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// filterHIT builds a one-item yes/no HIT (the cat-filter shape the mturk
// package's own tests use).
func filterHIT(id, task string, assignments int) *hit.HIT {
	return &hit.HIT{
		ID: id, Task: task, Type: qlang.TaskFilter,
		Question: "cat?", Response: qlang.Response{Kind: qlang.ResponseYesNo},
		Items:       []hit.Item{{Args: []relation.Value{relation.NewImage("x.png")}}},
		RewardCents: 2, Assignments: assignments,
	}
}

func orderHIT(id string, keys ...string) *hit.HIT {
	h := &hit.HIT{
		ID: id, Task: "rankSquares", Type: qlang.TaskRank,
		Question: "order by size", Response: qlang.Response{Kind: qlang.ResponseOrder},
		RewardCents: 3, Assignments: 1,
	}
	for _, k := range keys {
		h.Items = append(h.Items, hit.Item{Args: []relation.Value{relation.NewString(k)}})
	}
	return h
}

func joinHIT(id string) *hit.HIT {
	return &hit.HIT{
		ID: id, Task: "sameCeleb", Type: qlang.TaskJoinPredicate,
		Question: "same person?",
		Response: qlang.Response{Kind: qlang.ResponseJoinColumns},
		Left: []hit.Item{
			{Args: []relation.Value{relation.NewString("a")}},
			{Args: []relation.Value{relation.NewString("b")}},
		},
		Right: []hit.Item{
			{Args: []relation.Value{relation.NewString("a")}},
		},
		RewardCents: 4, Assignments: 1,
	}
}

// collect gathers assignment results thread-safely.
type collect struct {
	mu      sync.Mutex
	results []mturk.AssignmentResult
}

func (c *collect) add(r mturk.AssignmentResult) {
	c.mu.Lock()
	c.results = append(c.results, r)
	c.mu.Unlock()
}

func (c *collect) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// yesModel answers true to everything.
func yesModel(task string, tt qlang.TaskType, args []relation.Value) relation.Value {
	return relation.NewBool(true)
}

func drain(c *mturk.Clock) {
	for c.Step() {
	}
}

func TestLLMAnswersFilterHIT(t *testing.T) {
	clock := mturk.NewClock()
	l := NewLLM(clock, LLMConfig{Model: yesModel, PriceCents: 1})
	var got collect
	h := filterHIT(l.NewHITID(), "isCat", 3)
	h.RewardCents = 1
	if err := l.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if got.len() != 3 {
		t.Fatalf("assignments = %d, want 3", got.len())
	}
	got.mu.Lock()
	for i, r := range got.results {
		if len(r.Answers.Values) != 1 || !r.Answers.Values[0].Truthy() {
			t.Errorf("assignment %d answered false", i)
		}
		if r.External {
			t.Errorf("assignment %d marked external", i)
		}
	}
	// Completions land at distinct, increasing virtual times.
	if got.results[0].SubmittedAt >= got.results[1].SubmittedAt {
		t.Error("assignment times not strictly increasing")
	}
	got.mu.Unlock()
	st, ok := l.Status(h.ID)
	if !ok || st.Completed != 3 || st.Spent != 3 || st.Open() {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
	stats := l.Stats()
	if stats.HITsPosted != 1 || stats.AssignmentsCompleted != 3 || stats.SpentCents != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLLMOrderScoresBecomeRanks(t *testing.T) {
	clock := mturk.NewClock()
	// The model scores items by name length: "bb" < "ccc" < "dddd".
	model := func(task string, tt qlang.TaskType, args []relation.Value) relation.Value {
		return relation.NewInt(int64(len(args[0].Str())))
	}
	l := NewLLM(clock, LLMConfig{Model: model})
	var got collect
	h := orderHIT(l.NewHITID(), "ccc", "bb", "dddd")
	if err := l.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if got.len() != 1 {
		t.Fatalf("assignments = %d", got.len())
	}
	vals := got.results[0].Answers.Values
	// Questions in item order: "ccc", "bb", "dddd".
	want := []int64{1, 0, 2}
	if len(vals) != len(want) {
		t.Fatalf("answers = %v, want one per item", vals)
	}
	for i, rank := range want {
		if vals[i].Kind() != relation.KindInt || vals[i].Int() != rank {
			t.Errorf("rank of %v = %v, want %d", h.Items[i].Args[0], vals[i], rank)
		}
	}
}

func TestLLMAnswersJoinGrid(t *testing.T) {
	clock := mturk.NewClock()
	// Same text on both sides → true.
	model := func(task string, tt qlang.TaskType, args []relation.Value) relation.Value {
		return relation.NewBool(args[0].Str() == args[1].Str())
	}
	l := NewLLM(clock, LLMConfig{Model: model})
	var got collect
	h := joinHIT(l.NewHITID())
	if err := l.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if got.len() != 1 {
		t.Fatalf("assignments = %d", got.len())
	}
	vals := got.results[0].Answers.Values
	if len(vals) != 2 {
		t.Fatalf("answers = %v, want one per pair", vals)
	}
	if !vals[0].Truthy() { // (l1, r1)
		t.Error("matching pair answered false")
	}
	if vals[1].Truthy() { // (l2, r1)
		t.Error("mismatched pair answered true")
	}
}

func TestLLMDuplicateAndDispose(t *testing.T) {
	clock := mturk.NewClock()
	l := NewLLM(clock, LLMConfig{Model: yesModel, Latency: time.Minute})
	h := filterHIT("LHIT-X", "isCat", 2)
	var got collect
	if err := l.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	if err := l.Post(filterHIT("LHIT-X", "isCat", 2), got.add); err == nil {
		t.Error("duplicate HIT id accepted")
	}
	// Step one completion through, then dispose; the second scheduled
	// completion must be discarded unpaid.
	clock.Step()
	st, ok := l.Dispose(h.ID)
	if !ok || st.Completed != 1 || st.Spent != 2 {
		t.Fatalf("dispose status = %+v ok=%v", st, ok)
	}
	drain(clock)
	if got.len() != 1 {
		t.Fatalf("assignments after dispose = %d, want 1", got.len())
	}
	if l.Stats().SpentCents != 2 {
		t.Fatalf("spent = %v, want 2", l.Stats().SpentCents)
	}
	if _, ok := l.Status(h.ID); ok {
		t.Error("disposed HIT still has status")
	}
}

func TestLLMSubmitExternalFillsPaidSlot(t *testing.T) {
	clock := mturk.NewClock()
	l := NewLLM(clock, LLMConfig{Model: yesModel, Latency: time.Minute})
	h := filterHIT(l.NewHITID(), "isCat", 1)
	var got collect
	if err := l.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	ans := hit.Answers{WorkerID: "human-1", Values: []relation.Value{relation.NewBool(false)}}
	// A sheet that does not answer exactly the HIT's one question is
	// refused and fills no slot.
	for _, bad := range [][]relation.Value{nil, {relation.NewBool(true), relation.NewBool(true)}} {
		if err := l.SubmitExternal(h.ID, hit.Answers{WorkerID: "human-0", Values: bad}); err == nil {
			t.Errorf("external sheet of %d answers for 1 question accepted", len(bad))
		}
	}
	if err := l.SubmitExternal(h.ID, ans); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	// The external answer filled the only slot; the scheduled model
	// completion was discarded.
	if got.len() != 1 || !got.results[0].External {
		t.Fatalf("results = %+v", got.results)
	}
	st, _ := l.Status(h.ID)
	if st.Completed != 1 || st.Spent != 2 {
		t.Fatalf("status = %+v", st)
	}
	if err := l.SubmitExternal(h.ID, ans); err == nil {
		t.Error("external submission on full HIT accepted")
	}
}

func TestSimWrapsMarketplace(t *testing.T) {
	clock := mturk.NewClock()
	market := mturk.NewMarketplace(clock, perfectPool{})
	s := NewSim(market)
	if s.Name() != "sim" {
		t.Fatalf("name = %q", s.Name())
	}
	if s.Clock() != clock {
		t.Fatal("clock not passed through")
	}
	var got collect
	h := filterHIT(s.NewHITID(), "isCat", 2)
	if err := s.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if got.len() != 2 {
		t.Fatalf("assignments = %d", got.len())
	}
	if st, ok := s.Status(h.ID); !ok || st.Completed != 2 {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
}

// perfectPool answers every question true after one virtual minute.
type perfectPool struct{}

func (perfectPool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	return mturk.Claim{
		WorkerID: "w1",
		Delay:    time.Minute,
		Answer: func() (hit.Answers, error) {
			vals := make([]relation.Value, h.QuestionCount())
			for i := range vals {
				vals[i] = relation.NewBool(true)
			}
			return hit.Answers{Values: vals}, nil
		},
	}, true
}

func newTestRouter(t *testing.T) (*Router, *mturk.Clock, *LLM) {
	t.Helper()
	clock := mturk.NewClock()
	market := mturk.NewMarketplace(clock, perfectPool{})
	llm := NewLLM(clock, LLMConfig{Model: yesModel, PriceCents: 1})
	r, err := NewRouter("sim", NewSim(market), llm)
	if err != nil {
		t.Fatal(err)
	}
	return r, clock, llm
}

func TestRouterValidation(t *testing.T) {
	clock := mturk.NewClock()
	sim := NewSim(mturk.NewMarketplace(clock, perfectPool{}))
	if _, err := NewRouter("sim"); err == nil {
		t.Error("empty router accepted")
	}
	if _, err := NewRouter("nope", sim); err == nil {
		t.Error("unknown default accepted")
	}
	if _, err := NewRouter("sim", sim, NewSim(mturk.NewMarketplace(clock, perfectPool{}))); err == nil {
		t.Error("duplicate backend name accepted")
	}
	other := mturk.NewClock()
	if _, err := NewRouter("sim", sim, NewLLM(other, LLMConfig{Model: yesModel})); err == nil ||
		!strings.Contains(err.Error(), "different clock") {
		t.Errorf("mismatched clocks accepted: %v", err)
	}
}

func TestRouterPinAndDefault(t *testing.T) {
	r, clock, llm := newTestRouter(t)
	if err := r.Pin("isCat", "llm"); err != nil {
		t.Fatal(err)
	}
	if err := r.Pin("x", "nope"); err == nil {
		t.Error("pin to unknown backend accepted")
	}
	var got collect
	pinned := filterHIT(r.NewHITID(), "isCat", 1)
	free := filterHIT(r.NewHITID(), "isDog", 1)
	if err := r.Post(pinned, got.add); err != nil {
		t.Fatal(err)
	}
	if err := r.Post(free, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if got.len() != 2 {
		t.Fatalf("assignments = %d", got.len())
	}
	if llm.Stats().HITsPosted != 1 {
		t.Fatalf("llm HITs = %d, want the pinned one", llm.Stats().HITsPosted)
	}
	counts, _ := r.Counts()
	if counts["llm"] != 1 || counts["sim"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if got := r.Members(); len(got) != 2 || got[0] != "sim" || got[1] != "llm" {
		t.Fatalf("members = %v", got)
	}
}

func TestRouterChooserAndFallback(t *testing.T) {
	r, clock, llm := newTestRouter(t)
	r.SetChooser(func(task string, tt qlang.TaskType) string {
		if tt == qlang.TaskFilter {
			return "llm"
		}
		return "not-a-backend" // must fall back to the default
	})
	var got collect
	f := filterHIT(r.NewHITID(), "isCat", 1)
	o := orderHIT(r.NewHITID(), "a", "bb")
	if err := r.Post(f, got.add); err != nil {
		t.Fatal(err)
	}
	if err := r.Post(o, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if llm.Stats().HITsPosted != 1 {
		t.Fatalf("llm HITs = %d, want only the filter HIT", llm.Stats().HITsPosted)
	}
	counts, _ := r.Counts()
	if counts["sim"] != 1 {
		t.Fatalf("counts = %v, want rank HIT routed to default", counts)
	}
	// Pins outrank the chooser.
	if err := r.Pin("isCat", "sim"); err != nil {
		t.Fatal(err)
	}
	if name := r.RouteFor("isCat", qlang.TaskFilter); name != "sim" {
		t.Fatalf("RouteFor pinned task = %q", name)
	}
}

func TestRouterSavingsAccounting(t *testing.T) {
	r, clock, _ := newTestRouter(t)
	if err := r.Pin("isCat", "llm"); err != nil {
		t.Fatal(err)
	}
	// Policy says 2¢; the LLM quotes 1¢. Quoting then posting at the
	// quote books the difference per assignment.
	price := r.QuoteCents("isCat", qlang.TaskFilter, 2)
	if price != 1 {
		t.Fatalf("quote = %d", price)
	}
	h := filterHIT(r.NewHITID(), "isCat", 3)
	h.RewardCents = price
	var got collect
	if err := r.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	_, saved := r.Counts()
	if saved != 3 {
		t.Fatalf("saved = %v cents, want (2-1)×3 = 3", saved)
	}
	// A sim-routed task quotes the policy price: no savings.
	price = r.QuoteCents("isDog", qlang.TaskFilter, 2)
	h2 := filterHIT(r.NewHITID(), "isDog", 1)
	h2.RewardCents = price
	if err := r.Post(h2, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if _, saved := r.Counts(); saved != 3 {
		t.Fatalf("saved moved to %v on a policy-priced post", saved)
	}
}

func TestRouterRoutesLifecycleCalls(t *testing.T) {
	r, clock, llm := newTestRouter(t)
	if err := r.Pin("isCat", "llm"); err != nil {
		t.Fatal(err)
	}
	var got collect
	h := filterHIT(r.NewHITID(), "isCat", 2)
	if err := r.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	if err := r.Post(filterHIT(h.ID, "isCat", 2), got.add); err == nil {
		t.Error("duplicate HIT id accepted")
	}
	// Status resolves through the routing table to the llm backend.
	if st, ok := r.Status(h.ID); !ok || st.Completed != 0 {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
	ext := hit.Answers{WorkerID: "human-1", Values: []relation.Value{relation.NewBool(true)}}
	if err := r.SubmitExternal(h.ID, ext); err != nil {
		t.Fatal(err)
	}
	st, ok := r.Dispose(h.ID)
	if !ok || st.Completed != 1 {
		t.Fatalf("dispose = %+v ok=%v", st, ok)
	}
	if llm.Stats().ExternalSubmissions != 1 {
		t.Fatalf("external submissions = %d", llm.Stats().ExternalSubmissions)
	}
	// The entry is retired: later lifecycle calls miss.
	if _, ok := r.Status(h.ID); ok {
		t.Error("disposed HIT still resolves")
	}
	if err := r.SubmitExternal(h.ID, ext); err == nil {
		t.Error("external submission on disposed HIT accepted")
	}
	drain(clock)
}

func TestRouterRetiresEntriesOnCompletionAndFailure(t *testing.T) {
	clock := mturk.NewClock()
	market := mturk.NewMarketplace(clock, &failingPool{})
	llm := NewLLM(clock, LLMConfig{Model: yesModel})
	r, err := NewRouter("llm", NewSim(market), llm)
	if err != nil {
		t.Fatal(err)
	}
	var failures collect
	var mu sync.Mutex
	var failed []string
	r.SetErrorHandler(func(hitID string, err error) {
		mu.Lock()
		failed = append(failed, hitID)
		mu.Unlock()
	})

	// Completion path: after the last assignment the entry is gone.
	done := filterHIT(r.NewHITID(), "isCat", 1)
	if err := r.Post(done, failures.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if _, ok := r.Status(done.ID); ok {
		t.Error("completed HIT entry not retired")
	}

	// Failure path: a sim HIT whose pool never produces a worker fails
	// terminally; the wrapped error handler must retire the entry too.
	if err := r.Pin("isCat", "sim"); err != nil {
		t.Fatal(err)
	}
	dead := filterHIT(r.NewHITID(), "isCat", 1)
	if err := r.Post(dead, failures.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	mu.Lock()
	nFailed := len(failed)
	mu.Unlock()
	if nFailed != 1 || failed[0] != dead.ID {
		t.Fatalf("failures = %v", failed)
	}
	if _, ok := r.Status(dead.ID); ok {
		t.Error("failed HIT entry not retired")
	}
}

// TestRouterDisposeReachesMemberAfterCompletion covers the routing entry
// of a completed HIT: to Status and ExtendAssignments it is gone, but
// Dispose still reaches the member holding the HIT, after its last
// assignment landed or terminally failed.
func TestRouterDisposeReachesMemberAfterCompletion(t *testing.T) {
	clock := mturk.NewClock()
	market := mturk.NewMarketplace(clock, &failingPool{})
	llm := NewLLM(clock, LLMConfig{Model: yesModel})
	r, err := NewRouter("llm", NewSim(market), llm)
	if err != nil {
		t.Fatal(err)
	}
	r.SetErrorHandler(nil)

	var got collect
	done := filterHIT(r.NewHITID(), "isCat", 2)
	if err := r.Post(done, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if got.len() != 2 {
		t.Fatalf("assignments = %d, want 2", got.len())
	}
	if st, ok := llm.Status(done.ID); !ok || st.Completed != 2 {
		t.Fatalf("member status before dispose = %+v ok=%v", st, ok)
	}
	if err := r.ExtendAssignments(done.ID, 1); err == nil {
		t.Error("completed HIT extended")
	}
	if st, ok := r.Dispose(done.ID); !ok || st.Completed != 2 {
		t.Fatalf("dispose = %+v ok=%v", st, ok)
	}
	if _, ok := llm.Status(done.ID); ok {
		t.Error("member still reports the disposed HIT")
	}
	if _, ok := r.Dispose(done.ID); ok {
		t.Error("second dispose found the HIT")
	}

	// A sim HIT whose only assignment fails terminally is completed too.
	if err := r.Pin("isCat", "sim"); err != nil {
		t.Fatal(err)
	}
	dead := filterHIT(r.NewHITID(), "isCat", 1)
	if err := r.Post(dead, got.add); err != nil {
		t.Fatal(err)
	}
	drain(clock)
	if _, ok := market.Status(dead.ID); !ok {
		t.Fatal("sim dropped the failed HIT before dispose")
	}
	if _, ok := r.Dispose(dead.ID); !ok {
		t.Fatal("dispose of the failed HIT missed")
	}
	if _, ok := market.Status(dead.ID); ok {
		t.Error("sim still reports the disposed HIT")
	}
}

// failingPool never has a worker available.
type failingPool struct{}

func (*failingPool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	return mturk.Claim{}, false
}

func TestQuoteAndServingNameHelpers(t *testing.T) {
	clock := mturk.NewClock()
	llm := NewLLM(clock, LLMConfig{Model: yesModel, PriceCents: 1})
	sim := NewSim(mturk.NewMarketplace(clock, perfectPool{}))
	// Plain backends quote through Pricer (or echo the policy) and
	// serve under their own name.
	if got := Quote(llm, "t", qlang.TaskFilter, 5); got != 1 {
		t.Fatalf("llm quote = %d", got)
	}
	if got := Quote(sim, "t", qlang.TaskFilter, 5); got != 5 {
		t.Fatalf("sim quote = %d", got)
	}
	if got := ServingName(sim, "t", qlang.TaskFilter); got != "sim" {
		t.Fatalf("sim serving name = %q", got)
	}
	// A router resolves both per task.
	r, err := NewRouter("sim", sim, llm)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Pin("t", "llm"); err != nil {
		t.Fatal(err)
	}
	if got := ServingName(r, "t", qlang.TaskFilter); got != "llm" {
		t.Fatalf("routed serving name = %q", got)
	}
	if got := Quote(r, "t", qlang.TaskFilter, 5); got != 1 {
		t.Fatalf("routed quote = %d", got)
	}
	if got := ServingName(r, "u", qlang.TaskFilter); got != "sim" {
		t.Fatalf("default serving name = %q", got)
	}
}
