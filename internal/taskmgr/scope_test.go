package taskmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/qerr"
	"repro/internal/relation"
)

func TestScopeCancelResolvesPendingWithCause(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	s := m.NewScope()
	def := filterDef()
	var got atomic.Pointer[Outcome]
	// BatchSize default 1 posts immediately; use a partial batch via a
	// bigger batch policy so the item stays pending.
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 10, PriceCents: 1, Linger: time.Hour, UseCache: true})
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-1")}, Scope: s,
		Done: func(o Outcome) { got.Store(&o) }})
	if m.Pending() != 1 {
		t.Fatalf("want 1 pending, got %d", m.Pending())
	}
	s.Cancel(nil)
	out := got.Load()
	if out == nil {
		t.Fatal("pending item not resolved by Cancel")
	}
	if !errors.Is(out.Err, qerr.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", out.Err)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending not swept: %d", m.Pending())
	}
	// Submissions after cancel fail fast without queueing or posting.
	var late atomic.Pointer[Outcome]
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-2")}, Scope: s,
		Done: func(o Outcome) { late.Store(&o) }})
	if out := late.Load(); out == nil || !errors.Is(out.Err, qerr.ErrCanceled) {
		t.Fatalf("late submit: want immediate ErrCanceled, got %+v", out)
	}
}

func TestScopeCancelExpiresInflightAndRefunds(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{Workers: 1}, 0)
	s := m.NewScope()
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 2, Linger: time.Minute, UseCache: true})
	var done atomic.Pointer[Outcome]
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-1")}, Scope: s,
		Done: func(o Outcome) { done.Store(&o) }})
	// Posted: 3 assignments × 2¢ charged up front.
	if got := m.Account().Spent(); got != 6 {
		t.Fatalf("want 6¢ charged at post, got %v", got)
	}
	if s.Spent() != 6 {
		t.Fatalf("scope sunk cost at post = %v", s.Spent())
	}
	s.Cancel(qerr.ErrDeadline)
	out := done.Load()
	if out == nil || !errors.Is(out.Err, qerr.ErrDeadline) {
		t.Fatalf("want ErrDeadline resolution, got %+v", out)
	}
	// No assignment had completed, so the whole charge is refunded.
	if got := m.Account().Spent(); got != 0 {
		t.Fatalf("want full refund, account still shows %v", got)
	}
	if s.Spent() != 0 {
		t.Fatalf("scope sunk cost after refund = %v", s.Spent())
	}
	if m.Inflight() != 0 {
		t.Fatalf("inflight not cleared: %d", m.Inflight())
	}
	// The marketplace no longer knows the HIT; late worker submissions
	// are discarded unpaid.
	runUntil(t, clock, func() bool { return clock.Pending() == 0 })
	if got := m.Account().Spent(); got != 0 {
		t.Fatalf("late submissions charged money: %v", got)
	}
}

func TestScopeBudgetCapsSpend(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	s := m.NewScope()
	s.SetBudget(2)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Minute, UseCache: true})
	var mu sync.Mutex
	var errs, oks int
	for i := 0; i < 5; i++ {
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString(relationKey(i))}, Scope: s,
			Done: func(o Outcome) {
				mu.Lock()
				defer mu.Unlock()
				if o.Err != nil {
					if !errors.Is(o.Err, budget.ErrExhausted) {
						t.Errorf("want budget error, got %v", o.Err)
					}
					errs++
				} else {
					oks++
				}
			}})
	}
	runUntil(t, clock, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return errs+oks == 5
	})
	mu.Lock()
	defer mu.Unlock()
	if oks != 2 || errs != 3 {
		t.Fatalf("2¢ cap over 1¢ HITs: want 2 ok / 3 exhausted, got %d / %d", oks, errs)
	}
	if s.Spent() != 2 {
		t.Fatalf("scope spent %v of its 2¢ cap", s.Spent())
	}
}

func relationKey(i int) string { return "cat-" + string(rune('a'+i)) }

func TestScopePolicyOverride(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	// Engine-level policy: 3 assignments. Scope override: 1.
	m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1, Linger: time.Minute, UseCache: true})
	s := m.NewScope()
	s.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Minute, UseCache: true})
	var done atomic.Pointer[Outcome]
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-x")}, Scope: s,
		Done: func(o Outcome) { done.Store(&o) }})
	runUntil(t, clock, func() bool { return done.Load() != nil })
	if out := done.Load(); out.Err != nil || len(out.Answers) != 1 {
		t.Fatalf("want a single-assignment outcome under the scope policy, got %+v", out)
	}
	// Unscoped submissions still use the engine policy.
	out := submitAndWait(t, m, clock, def, relation.NewString("cat-y"))
	if len(out.Answers) != 3 {
		t.Fatalf("unscoped redundancy = %d answers, want 3", len(out.Answers))
	}
}

func TestScopesNeverShareAHIT(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 4, PriceCents: 1, Linger: time.Millisecond, UseCache: true})
	a, b := m.NewScope(), m.NewScope()
	var outs atomic.Int64
	for i := 0; i < 4; i++ {
		scope := a
		if i%2 == 1 {
			scope = b
		}
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString(relationKey(i))}, Scope: scope,
			Done: func(Outcome) { outs.Add(1) }})
	}
	m.Flush(def.Name)
	runUntil(t, clock, func() bool { return outs.Load() == 4 })
	// Four items, batch size 4, but two scopes: at least two HITs.
	st := m.StatsFor(def.Name)
	if st.HITsPosted < 2 {
		t.Fatalf("scopes shared a HIT: %d posted for two scopes", st.HITsPosted)
	}
}

// TestMixedGroupsAtThresholdStillFlush is the regression test for
// partial-group starvation: when the batch threshold is reached but no
// single (assignments, scope) group fills a batch — and Linger is 0, so
// no timer will ever fire — the partials must still cut and post.
func TestMixedGroupsAtThresholdStillFlush(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 4, PriceCents: 1, Linger: 0, UseCache: true})
	s := m.NewScope()
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	for i := 0; i < 3; i++ {
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString(relationKey(i))}, Scope: s, Done: done})
	}
	// The 4th item reaches the threshold but carries an assignments
	// override (like exec's pre-filter stages), so it can never share a
	// batch with the first three.
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-z")}, Scope: s,
		Assignments: 1, Done: done})
	runUntil(t, clock, func() bool { return outs.Load() == 4 })
	if m.Pending() != 0 {
		t.Fatalf("items stranded in pending: %d", m.Pending())
	}
}

// A Cancel racing a batch post that already passed the cancellation
// check waits for that post to land, then expires the HIT: once Cancel
// returns, no HIT of the scope is still on its way to the marketplace.
func TestScopeCancelWaitsForInflightPost(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Hour})
	entered, resume := make(chan struct{}), make(chan struct{})
	hook := func(*hit.HIT) error {
		close(entered)
		<-resume
		return nil
	}
	m.postHook.Store(&hook)
	s := m.NewScope()
	var out atomic.Pointer[Outcome]
	go m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-1")}, Scope: s,
		Done: func(o Outcome) { out.Store(&o) }})
	<-entered // the post is admitted and stalled inside the marketplace call
	canceled := make(chan struct{})
	go func() {
		s.Cancel(nil)
		close(canceled)
	}()
	select {
	case <-canceled:
		t.Fatal("Cancel returned while an admitted post was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(resume)
	<-canceled
	if m.Inflight() != 0 {
		t.Fatalf("HIT posted during Cancel left open: inflight=%d", m.Inflight())
	}
	if o := out.Load(); o == nil || !errors.Is(o.Err, qerr.ErrCanceled) {
		t.Fatalf("item outcome = %+v, want the cancellation cause", o)
	}
	if s.Spent() != 0 {
		t.Fatalf("canceled scope still charged %v", s.Spent())
	}
}

// Group, join-grid and rank posts are admitted like batch posts: a
// Cancel racing one that passed the cancellation check waits for it,
// then the HIT is expired and refunded, so once Cancel returns the
// scope has no open HIT and has spent nothing.
func TestScopeCancelWaitsForInflightDirectPosts(t *testing.T) {
	cases := []struct {
		name string
		post func(m *Manager, s *Scope, done func(error))
	}{
		{"group", func(m *Manager, s *Scope, done func(error)) {
			req := Request{Def: filterDef(), Args: []relation.Value{relation.NewString("cat-1")}, Scope: s,
				Done: func(o Outcome) { done(o.Err) }}
			if err := m.SubmitGroup([]Request{req}); err != nil {
				done(err)
			}
		}},
		{"join", func(m *Manager, s *Scope, done func(error)) {
			left := [][]relation.Value{{relation.NewImage("a.png")}}
			right := [][]relation.Value{{relation.NewImage("a.png")}}
			m.JoinBlockIn(s, joinDef(), left, right, func(_, _ int, o Outcome) { done(o.Err) })
		}},
		{"rank", func(m *Manager, s *Scope, done func(error)) {
			m.RankBlockIn(s, rankDef(), rankItemsN(3), func(_ []Ranking, err error) { done(err) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _ := newRig(t, catOracle, crowd.Config{}, 0)
			entered, resume := make(chan struct{}), make(chan struct{})
			hook := func(*hit.HIT) error {
				close(entered)
				<-resume
				return nil
			}
			m.postHook.Store(&hook)
			s := m.NewScope()
			var got atomic.Pointer[error]
			go c.post(m, s, func(err error) { got.Store(&err) })
			<-entered // the post is admitted and stalled inside the backend call
			canceled := make(chan struct{})
			go func() {
				s.Cancel(nil)
				close(canceled)
			}()
			select {
			case <-canceled:
				t.Fatal("Cancel returned while an admitted post was still in flight")
			case <-time.After(20 * time.Millisecond):
			}
			close(resume)
			<-canceled
			if open := m.Backend().(*backend.Sim).AllHITs(); len(open) != 0 {
				t.Fatalf("HIT posted during Cancel left at the marketplace: %d", len(open))
			}
			if err := got.Load(); err == nil || !errors.Is(*err, qerr.ErrCanceled) {
				t.Fatalf("outcome = %v, want the cancellation cause", err)
			}
			if s.Spent() != 0 || m.Account().Spent() != 0 {
				t.Fatalf("canceled scope still charged: scope %v, account %v", s.Spent(), m.Account().Spent())
			}
		})
	}
}

// TestScopeReleasesHITSetOnceRetired runs a batch, a group, a join and
// a rank HIT in one scope to the end: the scope holds its open HITs
// while they are out, and once every one has retired it holds no HIT
// set at all, so a finished query's scope keeps no empty map alive.
func TestScopeReleasesHITSetOnceRetired(t *testing.T) {
	m, clock := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 1, BatchSize: 1, PriceCents: 1, Linger: time.Minute, UseCache: true})
	s := m.NewScope()
	var outs atomic.Int64
	done := func(Outcome) { outs.Add(1) }
	m.Submit(Request{Def: def, Args: []relation.Value{relation.NewString("cat-1")}, Scope: s, Done: done})
	if err := m.SubmitGroup([]Request{{Def: def, Args: []relation.Value{relation.NewString("cat-2")}, Scope: s, Done: done}}); err != nil {
		t.Fatal(err)
	}
	left := [][]relation.Value{{relation.NewImage("a.png")}}
	right := [][]relation.Value{{relation.NewImage("a.png")}}
	m.JoinBlockIn(s, joinDef(), left, right, func(_, _ int, o Outcome) { done(o) })
	m.RankBlockIn(s, rankDef(), rankItemsN(3), func([]Ranking, error) { outs.Add(1) })

	s.mu.Lock()
	open := len(s.hits)
	s.mu.Unlock()
	if open != 4 {
		t.Fatalf("scope holds %d open HITs after four posts, want 4", open)
	}
	runUntil(t, clock, func() bool { return outs.Load() == 4 })
	s.mu.Lock()
	hits := s.hits
	s.mu.Unlock()
	if hits != nil {
		t.Fatalf("every HIT retired, but the scope still holds a HIT set (%d entries)", len(hits))
	}
}
