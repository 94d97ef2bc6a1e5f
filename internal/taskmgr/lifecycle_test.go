package taskmgr

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/stats"
)

// lifecycleOracle answers comparisons by the number in the item's name
// and every other question by whether it shows a cat.
var lifecycleOracle = crowd.OracleFunc(func(task string, args []relation.Value) relation.Value {
	if task == rankDef().Name {
		return scoreOracle.Truth(task, args)
	}
	return catOracle.Truth(task, args)
})

// outcomeLog counts every outcome a HIT delivers, by question.
type outcomeLog struct {
	mu    sync.Mutex
	calls map[string]int
	errs  []error
}

func (o *outcomeLog) deliver(question string, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.calls == nil {
		o.calls = make(map[string]int)
	}
	o.calls[question]++
	if err != nil {
		o.errs = append(o.errs, err)
	}
}

func (o *outcomeLog) delivered() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, c := range o.calls {
		n += c
	}
	return n
}

// lifecycleKinds post one HIT of each kind, in scope s, at three 1¢
// assignments; questions is how many outcomes each owes.
var lifecycleKinds = []struct {
	name      string
	questions int
	post      func(m *Manager, s *Scope, log *outcomeLog)
}{
	{"batch", 2, func(m *Manager, s *Scope, log *outcomeLog) {
		def := filterDef()
		m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 2, PriceCents: 1, Linger: time.Hour})
		for i := 0; i < 2; i++ {
			q := fmt.Sprint(i)
			m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage("cat-" + q)}, Scope: s,
				Done: func(o Outcome) { log.deliver(q, o.Err) }})
		}
	}},
	{"group", 2, func(m *Manager, s *Scope, log *outcomeLog) {
		cat, dog := filterDef(), filterDef()
		dog.Name = "isDog"
		m.SetPolicy(cat.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1})
		var reqs []Request
		for i, def := range []*qlang.TaskDef{cat, dog} {
			q := fmt.Sprint(i)
			reqs = append(reqs, Request{Def: def, Args: []relation.Value{relation.NewImage("cat-x")}, Scope: s,
				Done: func(o Outcome) { log.deliver(q, o.Err) }})
		}
		if err := m.SubmitGroup(reqs); err != nil {
			panic(err)
		}
	}},
	{"grid", 4, func(m *Manager, s *Scope, log *outcomeLog) {
		def := joinDef()
		m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1})
		left := [][]relation.Value{imageArgs("cat-a"), imageArgs("dog-b")}
		right := [][]relation.Value{imageArgs("cat-c"), imageArgs("dog-d")}
		m.JoinBlockIn(s, def, left, right, func(l, r int, o Outcome) { log.deliver(fmt.Sprint(l, r), o.Err) })
	}},
	{"comparison", 1, func(m *Manager, s *Scope, log *outcomeLog) {
		def := rankDef()
		m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1})
		m.RankBlockIn(s, def, rankItemsN(3), func(_ []Ranking, err error) { log.deliver("all", err) })
	}},
}

// received sums the assignments the in-flight HITs have collected.
func received(m *Manager) int {
	n := 0
	m.flights.mu.Lock()
	for _, fl := range m.flights.hits {
		n += fl.received
	}
	m.flights.mu.Unlock()
	return n
}

// TestHITLifecycleMatrix drives every HIT kind through every way a HIT
// ends: it completes, every assignment fails, the post fails, its scope
// cancels before the first or after the first of three assignments
// (refunding two thirds of the cost), or its scope cancels while it
// waits for admission behind a full cap, holding its cost against the
// scope's budget until then. Each outcome is delivered exactly once;
// scope and account spend agree; the scope's HIT set is released, the
// marketplace holds no HIT and nothing is pending or in flight; with
// tracing on no span is left open, the in-flight gauge is back to 0
// and a canceled HIT's span says so. While a HIT is open, Inflight
// counts it, whatever its kind.
func TestHITLifecycleMatrix(t *testing.T) {
	type step = func(t *testing.T, m *Manager, clock *mturk.Clock, s *Scope, post func())
	cases := []struct {
		name     string
		spent    budget.Cents // scope and account spend at the end
		failed   bool         // every outcome carries an error
		canceled bool         // ... the cancellation cause
		queued   bool         // never admitted, so it has no HIT span
		run      step
	}{
		{name: "completes", spent: 3, run: func(t *testing.T, m *Manager, clock *mturk.Clock, s *Scope, post func()) {
			post()
			for clock.Step() {
			}
		}},
		{name: "every assignment fails", spent: 3, failed: true, run: func(t *testing.T, m *Manager, clock *mturk.Clock, s *Scope, post func()) {
			m.market.SetWorkerFilter(func(string) bool { return false })
			post()
			for clock.Step() {
			}
		}},
		{name: "post fails", spent: 0, failed: true, run: func(t *testing.T, m *Manager, clock *mturk.Clock, s *Scope, post func()) {
			hook := func(*hit.HIT) error { return errors.New("backend down") }
			m.postHook.Store(&hook)
			post()
		}},
		{name: "canceled before an assignment", spent: 0, failed: true, canceled: true, run: func(t *testing.T, m *Manager, clock *mturk.Clock, s *Scope, post func()) {
			post()
			if n := m.Inflight(); n != 1 {
				t.Errorf("Inflight = %d with the HIT open, want 1", n)
			}
			s.Cancel(nil)
		}},
		{name: "canceled after one of three assignments", spent: 1, failed: true, canceled: true, run: func(t *testing.T, m *Manager, clock *mturk.Clock, s *Scope, post func()) {
			post()
			for received(m) == 0 {
				if !clock.Step() {
					t.Fatal("the clock drained before an assignment landed")
				}
			}
			if n := received(m); n != 1 {
				t.Fatalf("%d assignments landed in one step, want 1", n)
			}
			if n := m.Inflight(); n != 1 {
				t.Errorf("Inflight = %d with the HIT open, want 1", n)
			}
			s.Cancel(nil)
		}},
		{name: "canceled while queued for admission", spent: 0, failed: true, canceled: true, queued: true, run: func(t *testing.T, m *Manager, clock *mturk.Clock, s *Scope, post func()) {
			m.SetAdmission(1)
			blocker, blk := m.NewScope(), filterDef()
			blk.Name = "isBlocker"
			m.Submit(Request{Def: blk, Args: imageArgs("cat-blocker"), Scope: blocker, Done: func(Outcome) {}})
			s.SetBudget(100)
			post()
			if rem, _ := s.RemainingBudget(); rem != 97 {
				t.Errorf("RemainingBudget = %v with the HIT queued, want 97 (its 3¢ held)", rem)
			}
			if m.Pending() == 0 || m.Inflight() != 1 {
				t.Errorf("Pending = %d, Inflight = %d with the HIT queued behind the blocker", m.Pending(), m.Inflight())
			}
			s.Cancel(nil)
			if rem, _ := s.RemainingBudget(); rem != 100 {
				t.Errorf("RemainingBudget = %v after the cancel, want 100 (the hold released)", rem)
			}
			blocker.Cancel(nil)
		}},
	}
	for _, kind := range lifecycleKinds {
		for _, c := range cases {
			t.Run(kind.name+"/"+c.name, func(t *testing.T) {
				m, clock := newRig(t, lifecycleOracle, crowd.Config{}, 0)
				tr := obs.New(clock.Now)
				m.SetObs(tr)
				s := m.NewScope()
				root := tr.StartRoot(obs.KindQuery, "SELECT test")
				s.SetSpan(root)
				log := &outcomeLog{}
				c.run(t, m, clock, s, func() { kind.post(m, s, log) })

				if n := log.delivered(); n != kind.questions {
					t.Errorf("%d outcomes delivered, want %d", n, kind.questions)
				}
				log.mu.Lock()
				for q, calls := range log.calls {
					if calls != 1 {
						t.Errorf("question %s resolved %d times", q, calls)
					}
				}
				wantErrs := 0
				if c.failed {
					wantErrs = kind.questions
				}
				if len(log.errs) != wantErrs {
					t.Errorf("%d outcomes carry an error, want %d: %v", len(log.errs), wantErrs, log.errs)
				}
				for _, err := range log.errs {
					if c.canceled && !errors.Is(err, qerr.ErrCanceled) {
						t.Errorf("outcome error %v, want the cancellation cause", err)
					}
				}
				log.mu.Unlock()

				if got, acct := s.Spent(), m.Account().Spent(); got != c.spent || acct != c.spent {
					t.Errorf("spent: scope %v, account %v, want %v", got, acct, c.spent)
				}
				s.mu.Lock()
				hits := s.hits
				s.mu.Unlock()
				if hits != nil {
					t.Errorf("scope still holds its HIT set: %v", hits)
				}
				if open := m.Backend().(*backend.Sim).AllHITs(); len(open) != 0 {
					t.Errorf("the marketplace still holds %d HITs", len(open))
				}
				if n := m.Inflight(); n != 0 {
					t.Errorf("Inflight = %d at the end", n)
				}
				if n := m.Pending(); n != 0 {
					t.Errorf("Pending = %d at the end", n)
				}
				if g := m.Metrics().Gauge(obs.MetricInflightHITs).Value(); g != 0 {
					t.Errorf("in-flight gauge = %d at the end", g)
				}
				var hitSpans int
				root.Walk(func(sp *obs.Span) {
					if sp.Kind != obs.KindHIT {
						return
					}
					hitSpans++
					if !sp.Ended() {
						t.Errorf("HIT span %s left open", sp.Name)
					}
					if v, _ := sp.Attr("canceled"); c.canceled && v != "true" {
						t.Errorf("canceled HIT span %s lacks canceled=true", sp.Name)
					}
					if refund := sp.RefundCents.Load(); c.canceled && refund != 3-int64(c.spent) {
						t.Errorf("canceled HIT span %s refunded %d¢, want %d", sp.Name, refund, 3-c.spent)
					}
				})
				wantSpans := 1
				if c.queued {
					wantSpans = 0
				}
				if hitSpans != wantSpans {
					t.Errorf("%d HIT spans in the query's tree, want %d", hitSpans, wantSpans)
				}
				root.End()
				if open := tr.OpenSpans(root); open != 0 {
					t.Errorf("%d spans left open", open)
				}
			})
		}
	}
}

// TestAdmissionCapsEveryHITKind submits three join grids, three
// comparisons, two grouped HITs and three batches at once under
// SetAdmission(2). The cap holds for every kind: Inflight, read at
// every clock step, never exceeds 2. Every outcome arrives exactly
// once, without error, and scope spend equals account spend.
func TestAdmissionCapsEveryHITKind(t *testing.T) {
	m, clock := newRig(t, lifecycleOracle, crowd.Config{}, 0)
	m.SetAdmission(2)
	s := m.NewScope()
	log := &outcomeLog{}
	filter, dog, join, cmp := filterDef(), filterDef(), joinDef(), rankDef()
	dog.Name = "isDog"
	m.SetPolicy(filter.Name, Policy{Assignments: 3, BatchSize: 2, PriceCents: 1, Linger: time.Hour})
	owed := 0
	for i := 0; i < 3; i++ {
		left := [][]relation.Value{imageArgs(fmt.Sprint("cat-l", i))}
		right := [][]relation.Value{imageArgs(fmt.Sprint("cat-r", i)), imageArgs(fmt.Sprint("dog-r", i))}
		m.JoinBlockIn(s, join, left, right, func(l, r int, o Outcome) { log.deliver(fmt.Sprint("grid", i, l, r), o.Err) })
		m.RankBlockIn(s, cmp, rankItemsN(3), func(_ []Ranking, err error) { log.deliver(fmt.Sprint("cmp", i), err) })
		for j := 0; j < 2; j++ {
			q := fmt.Sprint("batch", i, j)
			m.Submit(Request{Def: filter, Args: imageArgs("cat-" + q), Scope: s, Done: func(o Outcome) { log.deliver(q, o.Err) }})
		}
		owed += 2 + 1 + 2
	}
	for i := 0; i < 2; i++ {
		var reqs []Request
		for _, def := range []*qlang.TaskDef{filter, dog} {
			q := fmt.Sprint("group", i, def.Name)
			reqs = append(reqs, Request{Def: def, Args: imageArgs(fmt.Sprint("cat-g", i)), Scope: s,
				Done: func(o Outcome) { log.deliver(q, o.Err) }})
		}
		if err := m.SubmitGroup(reqs); err != nil {
			t.Fatal(err)
		}
		owed += 2
	}
	peak := m.Inflight()
	for clock.Step() {
		peak = max(peak, m.Inflight())
	}
	if peak > 2 {
		t.Errorf("%d HITs in flight at once under SetAdmission(2)", peak)
	}
	if n := log.delivered(); n != owed {
		t.Errorf("%d outcomes delivered, want %d", n, owed)
	}
	log.mu.Lock()
	for q, calls := range log.calls {
		if calls != 1 {
			t.Errorf("question %s resolved %d times", q, calls)
		}
	}
	if len(log.errs) != 0 {
		t.Errorf("outcomes carry errors: %v", log.errs)
	}
	log.mu.Unlock()
	if s.Spent() != m.Account().Spent() || s.Spent() == 0 {
		t.Errorf("spent: scope %v, account %v", s.Spent(), m.Account().Spent())
	}
	if m.Pending() != 0 || m.Inflight() != 0 {
		t.Errorf("Pending = %d, Inflight = %d at the end", m.Pending(), m.Inflight())
	}
}

// TestJoinGridUnderEM: a grid honours its task's Infer: em like any
// other HIT. It posts at the MinAssignments floor, buys further
// assignments while a cell's posterior stays unsure, counts as an
// adaptive HIT, and resolves its cells from the EM fit rather than by
// majority share.
func TestJoinGridUnderEM(t *testing.T) {
	def, err := qlang.ParseTaskDef(`
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
  Assignments: 5
  MinAssignments: 2
  Infer: em
`)
	if err != nil {
		t.Fatal(err)
	}
	m, clock := newRig(t, catOracle, crowd.Config{MeanSkill: 0.6, SkillStd: 0.05, Seed: 4}, 0)
	var posted []*hit.HIT
	hook := func(h *hit.HIT) error { posted = append(posted, h); return nil }
	m.postHook.Store(&hook)
	var left, right [][]relation.Value
	for i := 0; i < 3; i++ {
		left = append(left, imageArgs(fmt.Sprintf("cat-%d", i)))
		right = append(right, imageArgs(fmt.Sprintf("dog-%d", i)))
	}
	var mu sync.Mutex
	outs := map[[2]int]Outcome{}
	m.JoinBlockIn(nil, def, left, right, func(l, r int, o Outcome) {
		mu.Lock()
		outs[[2]int{l, r}] = o
		mu.Unlock()
	})
	for clock.Step() {
	}
	if len(posted) != 1 {
		t.Fatalf("posted %d HITs, want one grid", len(posted))
	}
	if n := posted[0].Assignments; n != 2 {
		t.Fatalf("the grid posted at %d assignments, want the floor of 2", n)
	}
	is := m.InferenceStats()
	if is.AdaptiveHITs != 1 || is.Extensions == 0 {
		t.Fatalf("inference stats %+v: want one adaptive HIT that extended", is)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(outs) != 9 {
		t.Fatalf("%d cells resolved, want 9", len(outs))
	}
	fromFit := 0
	for pos, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %v: %v", pos, o.Err)
		}
		if want := 2 + int(is.Extensions); len(o.Answers) != want {
			t.Errorf("cell %v holds %d answers, want every one the grid bought (%d)", pos, len(o.Answers), want)
		}
		if _, share := stats.MajorityBool(o.Answers); o.Agreement != share {
			fromFit++
		}
	}
	if fromFit == 0 {
		t.Error("every cell's agreement is its majority share; none came from the EM posterior")
	}
}
