package taskmgr

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/relation"
)

// obsRig arms a tracer on a fresh rig and opens a query root span
// attached to a scope, the way core.Engine does per query.
func obsRig(t *testing.T, cfg crowd.Config) (*Manager, *mturk.Clock, *obs.Tracer, *Scope, *obs.Span) {
	t.Helper()
	m, clock := newRig(t, catOracle, cfg, 0)
	tr := obs.New(clock.Now)
	m.SetObs(tr)
	s := m.NewScope()
	root := tr.StartRoot(obs.KindQuery, "SELECT test")
	s.SetSpan(root)
	return m, clock, tr, s, root
}

// Satellite: Scope.Cancel mid-query must close every open span in the
// query's tree — no orphans — so the tracer can recycle the whole tree.
func TestScopeCancelClosesSpanTree(t *testing.T) {
	// A crowd that never finishes an assignment keeps every posted HIT
	// (and its span) open until the cancel.
	m, _, tr, s, root := obsRig(t, crowd.Config{Workers: 1, Overhead: 1 << 40})
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1, Linger: time.Minute, UseCache: true})
	var resolved atomic.Int64
	for i := 0; i < 4; i++ {
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(relationKey(i))}, Scope: s,
			Done: func(Outcome) { resolved.Add(1) }})
	}
	if m.Inflight() == 0 {
		t.Fatal("no HITs in flight; the rig posted nothing to cancel")
	}
	if open := tr.OpenSpans(root); open < 4 {
		t.Fatalf("open spans before cancel = %d, want ≥4 (root + batches + HITs)", open)
	}

	s.Cancel(nil)
	if got := resolved.Load(); got != 4 {
		t.Fatalf("cancel resolved %d of 4 outcomes", got)
	}
	if open := tr.OpenSpans(root); open != 0 {
		var orphans []string
		root.Walk(func(sp *obs.Span) {
			if !sp.Ended() {
				orphans = append(orphans, string(sp.Kind)+":"+sp.Name)
			}
		})
		t.Fatalf("cancel left %d spans open: %v", open, orphans)
	}
	if !tr.Release(root) {
		t.Fatal("tracer refused to release a fully closed tree")
	}
}

// Satellite: when a cancellation refunds unconsumed adaptive extension
// slots, the refunded remainder must be annotated onto the extension
// spans that bought them.
func TestCancelAnnotatesExtensionRefund(t *testing.T) {
	// A coin-flip crowd leaves split votes unsure, so the adaptive loop
	// buys extensions. A single worker serializes assignment completions
	// one per clock step, so stopping the pump the moment the first
	// extension is purchased guarantees its extra assignment is still
	// outstanding when the cancel lands.
	m, clock, tr, s, root := obsRig(t, crowd.Config{Workers: 1, MeanSkill: 0.5, SkillStd: 1e-9})
	m.SetInference("em", 2, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1, Linger: time.Minute, UseCache: true})
	for i := 0; i < 12; i++ {
		m.Submit(Request{Def: def, Args: []relation.Value{relation.NewImage(relationKey(i))}, Scope: s,
			Done: func(Outcome) {}})
	}
	// Pump one event at a time (runUntil only checks its condition on an
	// empty queue, far too late): stop at the first purchased extension,
	// whose extra assignment is then provably still outstanding.
	for m.InferenceStats().Extensions == 0 {
		if !clock.Step() {
			m.Flush(def.Name)
			if !clock.Step() {
				t.Fatal("run drained without ever extending; pick another seed")
			}
		}
	}
	if m.Inflight() == 0 {
		t.Fatal("no HIT in flight at the first extension")
	}

	s.Cancel(nil)
	if open := tr.OpenSpans(root); open != 0 {
		t.Fatalf("cancel left %d spans open", open)
	}
	var extSpans, annotated int
	root.Walk(func(sp *obs.Span) {
		if sp.Kind != obs.KindHIT || sp.Name != "extend" {
			return
		}
		extSpans++
		if v, ok := sp.Attr("refunded_remainder_cents"); ok {
			annotated++
			if v != "1" {
				t.Errorf("refunded remainder = %q, want %q (1¢ reward)", v, "1")
			}
		}
	})
	if extSpans == 0 {
		t.Fatal("no extension spans recorded despite Extensions > 0")
	}
	if annotated == 0 {
		t.Fatalf("none of %d extension spans carry the refund annotation", extSpans)
	}
}

// TestRefusedPostsCountNothing: a HIT is counted when its backend
// accepts it. Three posts the backend refuses are refunded and leave the
// task at no HIT, no question and no spend, in TaskStats and in the
// registry alike, and nothing in flight.
func TestRefusedPostsCountNothing(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	m.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 1, PriceCents: 1, Linger: time.Minute, UseCache: true})
	hook := func(*hit.HIT) error { return errors.New("backend down") }
	m.postHook.Store(&hook)
	s := m.NewScope()
	s.SetLabel("tenant")
	var failed int
	for i := 0; i < 3; i++ {
		m.Submit(Request{Def: def, Args: imageArgs(relationKey(i)), Scope: s,
			Done: func(o Outcome) {
				if o.Err != nil {
					failed++
				}
			}})
	}
	if failed != 3 {
		t.Fatalf("%d of 3 refused posts failed their question", failed)
	}
	st := m.StatsFor(def.Name)
	if st.Submitted != 3 || st.HITsPosted != 0 || st.QuestionsAsked != 0 || st.SpentCents != 0 {
		t.Errorf("after 3 refused posts: %+v, want 3 submitted and no HIT, question or spend", st)
	}
	if spent := m.Account().Spent(); spent != 0 {
		t.Errorf("account spent %v after refunds", spent)
	}
	var prom strings.Builder
	if err := m.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{obs.MetricHITsPosted, obs.MetricQuestions, obs.MetricCostCents} {
		if strings.Contains(prom.String(), family) {
			t.Errorf("refused posts left a %s series:\n%s", family, prom.String())
		}
	}
	if g := m.Metrics().Gauge(obs.MetricInflightHITs).Value(); g != 0 {
		t.Errorf("in-flight gauge = %d after refused posts", g)
	}
}
