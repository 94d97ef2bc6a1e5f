package taskmgr

// This file is the manager's entire tracing surface. Every hook in the
// batching/posting/finalization paths funnels through the helpers here,
// all of which collapse to a nil check when no tracer is installed:
// the manager holds the tracer in an atomic pointer (the journal
// pattern), spans ride on pendingItem/inflightHIT fields that stay nil
// when tracing is off, and every obs call is nil-receiver safe. The
// disabled path therefore costs one atomic load per event site and
// zero allocations — and because spans never schedule clock events or
// consume randomness, enabling tracing cannot perturb a simulation.

import (
	"fmt"
	"strconv"

	"repro/internal/budget"
	"repro/internal/infer"
	"repro/internal/mturk"
	"repro/internal/obs"
)

// SetObs installs (or, with nil, removes) the tracer every batching and
// posting path reports spans and metrics to.
func (m *Manager) SetObs(t *obs.Tracer) {
	m.tracer.Store(t)
}

func (m *Manager) getObs() *obs.Tracer { return m.tracer.Load() }

// obsRegistry returns the metrics registry behind the installed tracer,
// nil when tracing is off (every registry method no-ops on nil).
func (m *Manager) obsRegistry() *obs.Registry { return m.getObs().Registry() }

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
// the HIT retires, and the posting metrics follow once the backend
// accepts the HIT (traceHITPosted).
func (m *Manager) traceHITSpans(fl *inflightHIT, pol Policy, queuedAt mturk.VirtualTime) {
	tr := m.getObs()
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

// traceHITPosted records the posting metrics of a HIT of any kind that
// reached its backend: the HIT and its cost per task (and per labeled
// scope), and one more HIT in flight.
func (m *Manager) traceHITPosted(fl *inflightHIT) {
	if fl.span == nil {
		return
	}
	reg := m.obsRegistry()
	if reg == nil {
		return
	}
	task := fl.hit.Task
	reg.Counter(obs.MetricHITsPosted, obs.L("task", task), obs.L("backend", fl.backend)).Add(1)
	reg.Counter(obs.MetricCostCents, obs.L("task", task)).Add(int64(fl.cost))
	for i := range fl.shares {
		if label := fl.shares[i].scope.labelNow(); label != "" {
			reg.Counter(obs.MetricCostCents, obs.L("task", task), obs.L("scope", label)).Add(int64(fl.shares[i].cost))
		}
	}
	reg.Gauge(obs.MetricInflightHITs).Add(1)
}

// traceBatchMetrics records the batch-only posting metrics of a batch
// HIT that reached the marketplace: the batch count, its admission wait
// and its fill.
func (m *Manager) traceBatchMetrics(fl *inflightHIT, pol Policy, queuedAt mturk.VirtualTime) {
	if fl.span == nil {
		return
	}
	reg := m.obsRegistry()
	if reg == nil {
		return
	}
	task := fl.hit.Task
	reg.Counter(obs.MetricBatchesPosted, obs.L("task", task)).Add(1)
	if queuedAt > 0 {
		reg.Histogram(obs.MetricAdmissionWait, obs.MinuteBuckets, obs.L("task", task)).
			Observe((fl.postedAt - queuedAt).Minutes())
	}
	reg.Histogram(obs.MetricBatchFillRatio, obs.RatioBuckets, obs.L("task", task)).
		Observe(float64(len(fl.items)) / float64(pol.BatchSize))
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

// traceAssignment records one received assignment as an instantaneous
// child span. Called with the in-flight table's lock held; span
// mutexes nest under the table lock everywhere.
func (m *Manager) traceAssignment(fl *inflightHIT, workerID string) {
	if fl.span == nil {
		return
	}
	fl.span.Child(obs.KindAssignment, workerID).End()
	fl.span.AddAssignments(1)
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricAssignments, obs.L("task", fl.hit.Task)).Add(1)
	}
}

// traceExtension records one purchased adaptive extension: an
// instantaneous child span carrying the price, remembered (under the
// table lock) so a later cancellation can annotate the refunded
// remainder onto the very spans that bought the slots.
func (m *Manager) traceExtension(fl *inflightHIT, price budget.Cents) {
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
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricExtensions, obs.L("task", fl.hit.Task)).Add(1)
		reg.Counter(obs.MetricCostCents, obs.L("task", fl.hit.Task)).Add(int64(price))
	}
}

// traceHITDone closes out a finalized HIT of any kind: assignments are
// attributed to the submitting operators, inference posteriors (posts,
// by question, when an EM fit resolved the answers) are annotated as
// posterior.<i> for question i, and the round-trip and extension-depth
// distributions observe the completion.
func (m *Manager) traceHITDone(fl *inflightHIT, latencyMin float64, posts []infer.Posterior) {
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
	if reg := m.obsRegistry(); reg != nil {
		reg.Histogram(obs.MetricHITRoundTrip, obs.MinuteBuckets,
			obs.L("task", fl.hit.Task), obs.L("backend", fl.backend)).Observe(latencyMin)
		if fl.adaptive {
			reg.Histogram(obs.MetricExtensionDepth, obs.DepthBuckets,
				obs.L("task", fl.hit.Task)).Observe(float64(len(fl.extSpans)))
		}
		reg.Gauge(obs.MetricInflightHITs).Add(-1)
	}
}

// traceHITAbandoned closes the span of a HIT that retired with zero
// assignments (terminal assignment failure).
func (m *Manager) traceHITAbandoned(fl *inflightHIT, err error) {
	if fl.span == nil {
		return
	}
	fl.span.Annotate("error", err.Error())
	fl.span.End()
	if reg := m.obsRegistry(); reg != nil {
		reg.Gauge(obs.MetricInflightHITs).Add(-1)
	}
}

// traceHITCanceled records a cancellation's refund on the HIT span and
// annotates the unconsumed extension spans with the remainder each gave
// back — the pro-rata refund walks the last-purchased slots first, the
// ones that cannot have completed yet. expired marks full expiry (the
// span ends and the in-flight gauge drops); a shared-HIT detach leaves
// the span open for the surviving participants.
func (m *Manager) traceHITCanceled(fl *inflightHIT, refund budget.Cents, expired bool) {
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
		if reg := m.obsRegistry(); reg != nil {
			reg.Counter(obs.MetricRefundCents, obs.L("task", fl.hit.Task)).Add(int64(refund))
		}
	}
	if expired {
		sp.Annotate("canceled", "true")
		sp.End()
		if reg := m.obsRegistry(); reg != nil {
			reg.Gauge(obs.MetricInflightHITs).Add(-1)
		}
	}
}
