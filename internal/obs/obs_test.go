package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mturk"
)

// fakeClock is a hand-advanced virtual clock for span stamps.
type fakeClock struct{ now mturk.VirtualTime }

func (f *fakeClock) Now() mturk.VirtualTime { return f.now }

func TestSpanTreeDeterministicIDs(t *testing.T) {
	build := func() []int64 {
		clk := &fakeClock{}
		tr := New(clk.Now)
		q := tr.StartRoot(KindQuery, "q1")
		p := q.Child(KindPlan, "plan")
		p.End()
		op := q.Child(KindOperator, "Filter")
		b := op.Child(KindBatch, "isCat")
		h := b.Child(KindHIT, "h000001")
		h.Child(KindAssignment, "w1").End()
		h.End()
		b.End()
		op.End()
		q.End()
		var ids []int64
		q.Walk(func(s *Span) { ids = append(ids, s.ID) })
		return ids
	}
	a, b := build(), build()
	if len(a) != 6 {
		t.Fatalf("want 6 spans, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ids diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSpanEndIdempotentAndOpenCount(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	q := tr.StartRoot(KindQuery, "q")
	op := q.Child(KindOperator, "Scan")
	if got := tr.OpenSpans(q); got != 2 {
		t.Fatalf("open = %d, want 2", got)
	}
	clk.now = mturk.VirtualTime(5 * 60 * 1e9)
	op.End()
	op.End() // idempotent
	if got := tr.OpenSpans(q); got != 1 {
		t.Fatalf("open after child end = %d, want 1", got)
	}
	if op.EndTime() != clk.now {
		t.Fatalf("end stamp = %v, want %v", op.EndTime(), clk.now)
	}
	q.End()
	if got := tr.OpenSpans(q); got != 0 {
		t.Fatalf("open after all ends = %d, want 0", got)
	}
}

func TestCloseTreeClosesOrphans(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	q := tr.StartRoot(KindQuery, "q")
	op := q.Child(KindOperator, "Filter")
	b := op.Child(KindBatch, "t")
	h := b.Child(KindHIT, "h1")
	_ = h
	q.CloseTree()
	if got := tr.OpenSpans(q); got != 0 {
		t.Fatalf("open after CloseTree = %d, want 0", got)
	}
	q.Walk(func(s *Span) {
		if !s.Ended() {
			t.Fatalf("span %s %q left open", s.Kind, s.Name)
		}
	})
}

func TestReleaseRecyclesOnlyEndedTrees(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	q := tr.StartRoot(KindQuery, "q")
	q.Child(KindOperator, "Scan") // left open
	if tr.Release(q) {
		t.Fatal("Release accepted a tree with open spans")
	}
	q.CloseTree()
	if !tr.Release(q) {
		t.Fatal("Release refused a fully ended tree")
	}
	if len(tr.Roots()) != 0 {
		t.Fatalf("root not forgotten: %d roots", len(tr.Roots()))
	}
}

func TestNilSafetyZeroAllocs(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.StartRoot(KindQuery, "q")
		c := s.Child(KindOperator, "op")
		c.AddRowsIn(1)
		c.AddRowsOut(1)
		c.AddHITs(1)
		c.AddCost(5)
		c.Annotate("k", "v")
		c.End()
		s.End()
		s.CloseTree()
		reg.Counter(MetricHITsPosted).Add(1)
		reg.Gauge(MetricInflightHITs).Set(3)
		reg.Histogram(MetricHITRoundTrip, MinuteBuckets).Observe(2.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", allocs)
	}
}

func TestRegistryPrometheusDeterministic(t *testing.T) {
	render := func() string {
		reg := NewRegistry()
		reg.Counter(MetricHITsPosted, L("task", "isCat"), L("backend", "sim")).Add(3)
		reg.Counter(MetricHITsPosted, L("task", "isDog"), L("backend", "sim")).Add(1)
		reg.Gauge(MetricInflightHITs).Set(2)
		h := reg.Histogram(MetricHITRoundTrip, MinuteBuckets, L("task", "isCat"))
		h.Observe(0.4)
		h.Observe(3)
		h.Observe(999)
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("non-deterministic render:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		`# TYPE qurk_hits_posted_total counter`,
		`qurk_hits_posted_total{backend="sim",task="isCat"} 3`,
		`# TYPE qurk_inflight_hits gauge`,
		`qurk_inflight_hits 2`,
		`# TYPE qurk_hit_roundtrip_minutes histogram`,
		`qurk_hit_roundtrip_minutes_bucket{le="0.5",task="isCat"} 1`,
		`qurk_hit_roundtrip_minutes_bucket{le="5",task="isCat"} 2`,
		`qurk_hit_roundtrip_minutes_bucket{le="+Inf",task="isCat"} 3`,
		`qurk_hit_roundtrip_minutes_count{task="isCat"} 3`,
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("render missing %q:\n%s", want, a)
		}
	}
}

func TestExplainAnalyzeTable(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	q := tr.StartRoot(KindQuery, "#1")
	p := q.Child(KindPlan, "")
	p.Annotate("cache", "hit")
	p.End()
	filt := q.Child(KindOperator, "Filter(isCat)")
	scan := filt.Child(KindOperator, "Scan(animals)")
	scan.AddRowsOut(100)
	filt.AddRowsIn(100)
	filt.AddRowsOut(40)
	filt.AddHITs(10)
	filt.AddAssignments(30)
	filt.AddCost(30)
	filt.AddCacheHits(12)
	clk.now = mturk.VirtualTime(90 * 60 * 1e9)
	q.CloseTree()

	out := ExplainAnalyze(q)
	for _, want := range []string{
		"operator", "plan [cache hit]", "Filter(isCat)", "Scan(animals)",
		"100/40", "cache=12", "30¢",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	if ExplainAnalyze(nil) == "" {
		t.Fatal("nil explain should describe disabled tracing")
	}
}

func TestMarshalTreeNests(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	q := tr.StartRoot(KindQuery, "q")
	q.Child(KindOperator, "Scan").End()
	q.End()
	data, err := MarshalTree(q)
	if err != nil {
		t.Fatal(err)
	}
	var rec SpanRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Children) != 1 || rec.Children[0].Name != "Scan" {
		t.Fatalf("tree lost nesting: %+v", rec)
	}
}
