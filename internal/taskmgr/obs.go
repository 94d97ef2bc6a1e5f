package taskmgr

// This file is the manager's observability surface. Each event is
// counted once, where it happens, in the always-on registry, on a
// series handle (obs.Ref) resolved at the series' first event and kept
// on the task's state or the manager; TaskStats, InferenceStats and
// Sharing read the same series. Spans are the only opt-in: they ride on
// fields that stay nil when tracing is off. Neither spans nor counters
// schedule clock events or consume randomness, so observing cannot
// perturb a simulation.

import (
	"fmt"
	"strconv"

	"repro/internal/budget"
	"repro/internal/infer"
	"repro/internal/mturk"
	"repro/internal/obs"
)

// count adds n to st's series ref of the counter family name.
func (m *Manager) count(st *taskState, ref *obs.Ref, name string, n int64) {
	ref.Counter(m.metrics, name, obs.L("task", st.name)).Add(n)
}

// backendSeries is a task's pair of series labeled by one serving
// backend too: its posted HITs and their round trips.
type backendSeries struct {
	name      string
	hits      *obs.Counter
	roundTrip *obs.Histogram
}

// servedBy returns st's series for backend, resolved at the first HIT
// the task posts there.
func (m *Manager) servedBy(st *taskState, backend string) backendSeries {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, bs := range st.backends {
		if bs.name == backend {
			return bs
		}
	}
	labels := []obs.Label{obs.L("task", st.name), obs.L("backend", backend)}
	bs := backendSeries{name: backend, hits: m.metrics.Counter(obs.MetricHITsPosted, labels...),
		roundTrip: m.metrics.Histogram(obs.MetricHITRoundTrip, obs.MinuteBuckets, labels...)}
	st.backends = append(st.backends, bs)
	return bs
}

// scopeCost returns st's cost series for a scope label (WithLabel),
// resolved at the label's first charge on the task.
func (m *Manager) scopeCost(st *taskState, label string) *obs.Counter {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.scopeCost[label]
	if c == nil {
		if st.scopeCost == nil {
			st.scopeCost = make(map[string]*obs.Counter)
		}
		c = m.metrics.Counter(obs.MetricCostCents, obs.L("task", st.name), obs.L("scope", label))
		st.scopeCost[label] = c
	}
	return c
}

// Metrics returns the manager's metrics registry. It is never nil.
func (m *Manager) Metrics() *obs.Registry { return m.metrics }

// SetObs installs (or, with nil, removes) the tracer every batching and
// posting path reports spans to.
func (m *Manager) SetObs(t *obs.Tracer) { m.tracer.Store(t) }

// SetSpan attaches the owning query's trace span to the scope: batch
// spans parent under it and Cancel closes the whole tree.
func (s *Scope) SetSpan(sp *obs.Span) {
	if s == nil || sp == nil {
		return
	}
	s.span.Store(sp)
}

// Span returns the scope's attached query span (nil when tracing is
// off or the scope is unscoped).
func (s *Scope) Span() *obs.Span {
	if s == nil {
		return nil
	}
	return s.span.Load()
}

// traceHITSpans opens the spans of a charged HIT of any kind, parented
// to its first share's query span (or a synthetic root when unscoped),
// and attributes the HIT to its submitting operators. A batch gets a
// batch → HIT pair: the batch span is backdated to queuedAt — its
// duration is the admission wait — and closed at post time. Any other
// kind gets one HIT span noting the HIT's shape. It runs before the
// in-flight entry becomes visible to completions, so onAssignment
// always observes fl.span fully built; the HIT span stays open until
// the HIT retires, and the HIT is counted once the backend accepts it
// (countPosted).
func (m *Manager) traceHITSpans(fl *inflightHIT, pol Policy, queuedAt mturk.VirtualTime) {
	tr := m.tracer.Load()
	if tr == nil {
		return
	}
	kind, name := obs.KindHIT, fl.hit.ID
	if fl.kind == kindBatch {
		kind, name = obs.KindBatch, fl.hit.Task
	}
	var sp *obs.Span
	if parent := fl.shares[0].scope.Span(); parent != nil {
		sp = parent.Child(kind, name)
	} else {
		sp = tr.StartRoot(kind, name)
	}
	hs := sp
	if fl.kind == kindBatch {
		if queuedAt > 0 && queuedAt < sp.Start {
			sp.Start = queuedAt
		}
		sp.Annotate("fill", fmt.Sprintf("%d/%d", len(fl.items), pol.BatchSize))
		if len(fl.shares) > 1 {
			sp.Annotate("shared_scopes", strconv.Itoa(len(fl.shares)))
		}
		if fl.adaptive {
			sp.Annotate("adaptive", fmt.Sprintf("min=%d cap=%d", fl.assign, fl.capA))
		}
		hs = sp.Child(obs.KindHIT, fl.hit.ID)
	} else {
		hs.Annotate("task", fl.hit.Task)
	}
	hs.Annotate("backend", fl.backend)
	switch fl.kind {
	case kindGroup:
		hs.Annotate("grouped", strconv.Itoa(len(fl.items)))
	case kindGrid:
		hs.Annotate("grid", fmt.Sprintf("%dx%d", len(fl.hit.Left), len(fl.hit.Right)))
	case kindRank:
		hs.Annotate("group_size", strconv.Itoa(len(fl.hit.Items)))
	}
	hs.AddHITs(1)
	hs.AddCost(int64(fl.cost))
	if hs != sp {
		sp.End()
	}
	fl.span = hs
	attributeOps(fl, fl.cost)
}

// attributeOps fans one HIT's posting out to the distinct submitting
// operator spans: each gets the HIT counted once and its item-count
// share of the cost (largest-remainder split, so shares sum exactly to
// the charge).
func attributeOps(fl *inflightHIT, cost budget.Cents) {
	if len(fl.items) == 0 {
		return
	}
	var ops []*obs.Span
	var counts []int
	idx := make(map[*obs.Span]int, 1)
	for _, it := range fl.items {
		if it.span == nil {
			continue
		}
		i, ok := idx[it.span]
		if !ok {
			i = len(ops)
			idx[it.span] = i
			ops = append(ops, it.span)
			counts = append(counts, 0)
		}
		counts[i]++
	}
	if len(ops) == 0 {
		return
	}
	shares := splitCost(cost, counts)
	for i, op := range ops {
		op.AddHITs(1)
		op.AddCost(int64(shares[i]))
	}
	fl.opSpans = ops
}

// countPosted counts a HIT of any kind its backend accepted: the HIT
// per task and backend, its cost per task and per labeled scope, its
// questions under the tasks asking them, its sharing across scopes and
// one more HIT in flight, and for a batch the batch, its admission wait
// and its fill.
func (m *Manager) countPosted(q queuedHIT) {
	fl, st := q.fl, q.fl.state
	m.servedBy(st, fl.backend).hits.Add(1)
	m.count(st, &st.cost, obs.MetricCostCents, int64(fl.cost))
	for i := range fl.shares {
		if label := fl.shares[i].scope.labelNow(); label != "" {
			m.scopeCost(st, label).Add(int64(fl.shares[i].cost))
		}
	}
	if fl.kind == kindGroup {
		for _, it := range fl.items {
			qs := m.state(it.def.Name, it.def)
			m.count(qs, &qs.questions, obs.MetricQuestions, 1)
		}
	} else {
		m.count(st, &st.questions, obs.MetricQuestions, int64(fl.hit.QuestionCount()))
	}
	if n := int64(len(fl.shares)); n > 1 {
		m.sharedHITs.Counter(m.metrics, obs.MetricSharedHITs).Add(1)
		m.coBatched.Counter(m.metrics, obs.MetricCoBatchedItems).Add(int64(len(fl.items)))
		m.sharedSaved.Counter(m.metrics, obs.MetricSharedHITsSaved).Add(n - 1)
		m.sharedCents.Counter(m.metrics, obs.MetricSharedSavedCents).Add(int64(fl.cost) * (n - 1))
	}
	m.inflight.Gauge(m.metrics, obs.MetricInflightHITs).Add(1)
	if fl.kind == kindBatch {
		task := obs.L("task", st.name)
		m.count(st, &st.batches, obs.MetricBatchesPosted, 1)
		if q.at > 0 {
			st.admissionWait.Histogram(m.metrics, obs.MetricAdmissionWait, obs.MinuteBuckets, task).
				Observe((fl.postedAt - q.at).Minutes())
		}
		st.fill.Histogram(m.metrics, obs.MetricBatchFillRatio, obs.RatioBuckets, task).
			Observe(float64(len(fl.items)) / float64(q.pol.BatchSize))
	}
}

// traceHITPostFailed closes the span of a HIT its backend refused
// (everything was refunded; no gauge was ever incremented).
func (m *Manager) traceHITPostFailed(fl *inflightHIT, err error) {
	if fl.span == nil {
		return
	}
	fl.span.Annotate("error", err.Error())
	fl.span.End()
}

// noteAssignment counts one received assignment and traces it as an
// instantaneous child span. Called with the in-flight table's lock
// held; span mutexes nest under the table lock everywhere.
func (m *Manager) noteAssignment(fl *inflightHIT, workerID string) {
	m.count(fl.state, &fl.state.assignments, obs.MetricAssignments, 1)
	if fl.span == nil {
		return
	}
	fl.span.Child(obs.KindAssignment, workerID).End()
	fl.span.AddAssignments(1)
}

// noteExtension counts one purchased adaptive extension and its price
// and traces it: an instantaneous child span carrying the price,
// remembered (under the table lock) so a later cancellation can
// annotate the refunded remainder onto the very spans that bought the
// slots.
func (m *Manager) noteExtension(fl *inflightHIT, price budget.Cents) {
	m.count(fl.state, &fl.state.extensions, obs.MetricExtensions, 1)
	m.count(fl.state, &fl.state.cost, obs.MetricCostCents, int64(price))
	if fl.span == nil {
		return
	}
	ext := fl.span.Child(obs.KindHIT, "extend")
	ext.AddCost(int64(price))
	ext.End()
	fl.span.AddExtensions(1)
	fl.span.AddCost(int64(price))
	m.flights.mu.Lock()
	fl.extSpans = append(fl.extSpans, ext)
	m.flights.mu.Unlock()
	if len(fl.opSpans) > 0 {
		fl.opSpans[0].AddExtensions(1)
		fl.opSpans[0].AddCost(int64(price))
	}
}

// noteHITDone closes out a finalized HIT of any kind: the round-trip
// and extension-depth distributions observe it and it leaves the
// in-flight gauge; its assignments are attributed to the submitting
// operators' spans, and inference posteriors (posts, by question, when
// an EM fit resolved the answers) are annotated as posterior.<i> for
// question i.
func (m *Manager) noteHITDone(fl *inflightHIT, latencyMin float64, posts []infer.Posterior) {
	m.servedBy(fl.state, fl.backend).roundTrip.Observe(latencyMin)
	if st := fl.state; fl.adaptive {
		st.extensionDepth.Histogram(m.metrics, obs.MetricExtensionDepth, obs.DepthBuckets, obs.L("task", st.name)).
			Observe(float64(fl.assign - fl.hit.Assignments))
	}
	m.inflight.Gauge(m.metrics, obs.MetricInflightHITs).Add(-1)
	sp := fl.span
	if sp == nil {
		return
	}
	for _, op := range fl.opSpans {
		op.AddAssignments(int64(fl.assign))
	}
	if posts != nil {
		for i, p := range posts {
			if !fl.detached(i) {
				sp.Annotate("posterior."+strconv.Itoa(i), fmt.Sprintf("%v p=%.3f", p.Value, p.Confidence))
			}
		}
	}
	sp.End()
}

// noteHITAbandoned counts a HIT that retired with zero assignments
// (terminal assignment failure) out of the in-flight gauge and closes
// its span.
func (m *Manager) noteHITAbandoned(fl *inflightHIT, err error) {
	m.inflight.Gauge(m.metrics, obs.MetricInflightHITs).Add(-1)
	if fl.span == nil {
		return
	}
	fl.span.Annotate("error", err.Error())
	fl.span.End()
}

// noteHITCanceled counts a cancellation's refund and records it on the
// HIT span, annotating the unconsumed extension spans with the
// remainder each gave back — the pro-rata refund walks the
// last-purchased slots first, the ones that cannot have completed yet.
// expired marks full expiry (the HIT leaves the in-flight gauge and its
// span ends); a shared-HIT detach leaves the span open for the
// surviving participants.
func (m *Manager) noteHITCanceled(fl *inflightHIT, refund budget.Cents, expired bool) {
	if refund > 0 {
		m.count(fl.state, &fl.state.refunds, obs.MetricRefundCents, int64(refund))
	}
	if expired {
		m.inflight.Gauge(m.metrics, obs.MetricInflightHITs).Add(-1)
	}
	sp := fl.span
	if sp == nil {
		return
	}
	if refund > 0 {
		sp.AddRefund(int64(refund))
		slots := fl.assign - fl.received
		for i := len(fl.extSpans) - 1; i >= 0 && slots > 0; i-- {
			fl.extSpans[i].Annotate("refunded_remainder_cents",
				strconv.FormatInt(fl.hit.RewardCents, 10))
			slots--
		}
	}
	if expired {
		sp.Annotate("canceled", "true")
		sp.End()
	}
}
