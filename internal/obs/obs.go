package obs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mturk"
)

// Kind classifies a span in the query → plan → operator → batch → HIT →
// assignment hierarchy.
type Kind string

const (
	KindQuery      Kind = "query"
	KindPlan       Kind = "plan"
	KindOperator   Kind = "operator"
	KindBatch      Kind = "batch"
	KindHIT        Kind = "hit"
	KindAssignment Kind = "assignment"
)

// Attr is one ordered key/value annotation on a span. Attrs keep
// insertion order so renders are deterministic.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed node in a query's trace tree. All methods are
// nil-receiver safe so instrumented code can call through unconditionally;
// the counter fields are atomics so concurrent producers (operator
// goroutines, the dispatcher, assignment callbacks) never contend on the
// span mutex for the hot counters.
type Span struct {
	ID     int64
	Parent int64
	Kind   Kind
	Name   string
	Start  mturk.VirtualTime

	end   atomic.Int64 // VirtualTime; valid when ended is true
	ended atomic.Bool

	RowsIn      atomic.Int64
	RowsOut     atomic.Int64
	HITs        atomic.Int64
	Assignments atomic.Int64
	CostCents   atomic.Int64
	RefundCents atomic.Int64
	CacheHits   atomic.Int64
	ModelHits   atomic.Int64
	Extensions  atomic.Int64

	// namer renders the name of a span opened by ChildNamed.
	namer fmt.Stringer

	mu       sync.Mutex
	attrs    []Attr
	children []*Span

	tracer *Tracer
	open   *atomic.Int64 // the tree root's count of not-yet-ended spans
}

// Child opens a sub-span under s, stamped at the tracer's current
// virtual time. Returns nil when s is nil, so call chains degrade to
// no-ops when tracing is off.
func (s *Span) Child(kind Kind, name string) *Span { return s.child(kind, name, nil) }

// ChildNamed is Child for a span whose name is rendered from namer each
// time Label reads it, so opening the span formats nothing.
func (s *Span) ChildNamed(kind Kind, namer fmt.Stringer) *Span { return s.child(kind, "", namer) }

func (s *Span) child(kind Kind, name string, namer fmt.Stringer) *Span {
	if s == nil {
		return nil
	}
	c := s.tracer.newSpan(kind, name)
	c.namer = namer
	c.Parent = s.ID
	c.open = s.open
	c.open.Add(1)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Label returns the span's name: Name, or its namer's rendering for a
// span opened by ChildNamed.
func (s *Span) Label() string {
	if s.namer != nil {
		return s.namer.String()
	}
	return s.Name
}

// End closes the span at the tracer's current virtual time. Idempotent;
// later calls keep the first end stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.ended.CompareAndSwap(false, true) {
		s.end.Store(int64(s.tracer.now()))
		s.open.Add(-1)
	}
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool { return s != nil && s.ended.Load() }

// EndTime returns the end stamp (zero until ended).
func (s *Span) EndTime() mturk.VirtualTime {
	if s == nil {
		return 0
	}
	return mturk.VirtualTime(s.end.Load())
}

// CloseTree ends every still-open span in s's subtree (post-order, so
// parents outlive children in the stamps). Used by cancellation to
// guarantee a canceled query leaves no orphan spans.
func (s *Span) CloseTree() {
	if s == nil {
		return
	}
	for _, c := range s.Children() {
		c.CloseTree()
	}
	s.End()
}

// Annotate appends an ordered key/value annotation.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Attrs returns a copy of the span's annotations in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the first annotation with the given key.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Children returns a copy of the span's child list in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Walk visits s and every descendant pre-order.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// Nil-safe counter helpers. Each is a single atomic add when tracing is
// on and a predictable branch when the span is nil.

func (s *Span) AddRowsIn(n int64) {
	if s != nil {
		s.RowsIn.Add(n)
	}
}
func (s *Span) AddRowsOut(n int64) {
	if s != nil {
		s.RowsOut.Add(n)
	}
}
func (s *Span) AddHITs(n int64) {
	if s != nil {
		s.HITs.Add(n)
	}
}
func (s *Span) AddAssignments(n int64) {
	if s != nil {
		s.Assignments.Add(n)
	}
}
func (s *Span) AddCost(cents int64) {
	if s != nil {
		s.CostCents.Add(cents)
	}
}
func (s *Span) AddRefund(cents int64) {
	if s != nil {
		s.RefundCents.Add(cents)
	}
}
func (s *Span) AddCacheHits(n int64) {
	if s != nil {
		s.CacheHits.Add(n)
	}
}
func (s *Span) AddModelHits(n int64) {
	if s != nil {
		s.ModelHits.Add(n)
	}
}
func (s *Span) AddExtensions(n int64) {
	if s != nil {
		s.Extensions.Add(n)
	}
}

// Tracer mints spans on the virtual clock. Span IDs come from a single
// atomic counter, so identical runs produce identical trees; timestamps
// come from the caller-supplied clock and never consume clock events,
// so tracing cannot perturb the discrete-event simulation.
type Tracer struct {
	now    func() mturk.VirtualTime
	reg    *Registry
	nextID atomic.Int64
	pool   sync.Pool

	mu    sync.Mutex
	roots []*Span
}

// New builds a tracer. now supplies virtual timestamps (required); reg
// receives derived metrics and may be nil.
func New(now func() mturk.VirtualTime, reg *Registry) *Tracer {
	t := &Tracer{now: now, reg: reg}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Registry returns the metrics registry wired at construction (may be
// nil). Nil-receiver safe.
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// newSpan draws a span from the pool and stamps it.
func (t *Tracer) newSpan(kind Kind, name string) *Span {
	s := t.pool.Get().(*Span)
	*s = Span{
		ID:     t.nextID.Add(1),
		Kind:   kind,
		Name:   name,
		Start:  t.now(),
		tracer: t,
	}
	return s
}

// StartRoot opens a parentless span (a query root, or a synthetic root
// for manager-level tracing without an engine) and records it so Roots
// can find the whole forest. Nil-receiver safe.
func (t *Tracer) StartRoot(kind Kind, name string) *Span {
	if t == nil {
		return nil
	}
	s := t.newSpan(kind, name)
	s.open = new(atomic.Int64)
	s.open.Add(1)
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns every root span started so far, in creation order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// OpenSpans reports how many spans in root's tree have not ended.
func (t *Tracer) OpenSpans(root *Span) int64 {
	if root == nil {
		return 0
	}
	return root.open.Load()
}

// Release recycles a fully-ended trace tree back into the span pool and
// forgets its root. The caller asserts exclusive ownership — nothing may
// touch the tree afterwards. Trees with open spans are refused (false)
// because a live writer could still reach them.
func (t *Tracer) Release(root *Span) bool {
	if t == nil || root == nil {
		return false
	}
	if root.open.Load() != 0 {
		return false
	}
	t.mu.Lock()
	for i, r := range t.roots {
		if r == root {
			t.roots = append(t.roots[:i], t.roots[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	t.recycle(root)
	return true
}

func (t *Tracer) recycle(s *Span) {
	s.mu.Lock()
	kids := s.children
	s.children = nil
	s.attrs = nil
	s.namer = nil
	s.mu.Unlock()
	for _, c := range kids {
		t.recycle(c)
	}
	t.pool.Put(s)
}
