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

// traceBatchSpans opens the batch → hit span pair for one compiled
// batch HIT and attributes it to each submitting operator's span. It
// runs before the in-flight entry becomes visible to completions, so
// onAssignment always observes fl.span fully built. The batch span is
// backdated to queuedAt — its duration is the admission wait — and
// closed at post time; the HIT span stays open until the HIT retires.
func (m *Manager) traceBatchSpans(fl *inflightHIT, pol Policy, queuedAt mturk.VirtualTime) {
	tr := m.getObs()
	if tr == nil {
		return
	}
	var bs *obs.Span
	if parent := fl.shares[0].scope.Span(); parent != nil {
		bs = parent.Child(obs.KindBatch, fl.hit.Task)
	} else {
		bs = tr.StartRoot(obs.KindBatch, fl.hit.Task)
	}
	if queuedAt > 0 && queuedAt < bs.Start {
		bs.Start = queuedAt
	}
	bs.Annotate("fill", fmt.Sprintf("%d/%d", len(fl.items), pol.BatchSize))
	if len(fl.shares) > 1 {
		bs.Annotate("shared_scopes", strconv.Itoa(len(fl.shares)))
	}
	if fl.adaptive {
		bs.Annotate("adaptive", fmt.Sprintf("min=%d cap=%d", fl.assign, fl.capA))
	}
	hs := bs.Child(obs.KindHIT, fl.hit.ID)
	hs.Annotate("backend", fl.backend)
	hs.AddHITs(1)
	hs.AddCost(int64(fl.cost))
	bs.End()
	fl.span = hs
	attributeOps(fl, fl.cost)
}

// attributeOps fans one HIT's posting out to the distinct submitting
// operator spans: each gets the HIT counted once and its item-count
// share of the cost (largest-remainder split, so shares sum exactly to
// the charge).
func attributeOps(fl *inflightHIT, cost budget.Cents) {
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

// traceBatchMetrics records the posting-time metrics for a batch HIT
// that actually reached the marketplace.
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
	reg.Counter(obs.MetricHITsPosted, obs.L("task", task), obs.L("backend", fl.backend)).Add(1)
	reg.Counter(obs.MetricCostCents, obs.L("task", task)).Add(int64(fl.cost))
	for i := range fl.shares {
		if label := fl.shares[i].scope.labelNow(); label != "" {
			reg.Counter(obs.MetricCostCents, obs.L("task", task), obs.L("scope", label)).Add(int64(fl.shares[i].cost))
		}
	}
	reg.Gauge(obs.MetricInflightHITs).Add(1)
	if queuedAt > 0 {
		reg.Histogram(obs.MetricAdmissionWait, obs.MinuteBuckets, obs.L("task", task)).
			Observe((fl.postedAt - queuedAt).Minutes())
	}
	reg.Histogram(obs.MetricBatchFillRatio, obs.RatioBuckets, obs.L("task", task)).
		Observe(float64(len(fl.items)) / float64(pol.BatchSize))
}

// traceHITPostFailed closes the spans of a batch HIT the marketplace
// refused (everything was refunded; no gauge was ever incremented).
func (m *Manager) traceHITPostFailed(fl *inflightHIT, err error) {
	if fl.span == nil {
		return
	}
	fl.span.Annotate("error", err.Error())
	fl.span.End()
}

// traceAssignment records one received assignment as an instantaneous
// child span. Called with the HIT's stripe lock held; span mutexes
// nest under stripe locks everywhere.
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
// stripe lock) so a later cancellation can annotate the refunded
// remainder onto the very spans that bought the slots.
func (m *Manager) traceExtension(s *flightStripe, hitID string, fl *inflightHIT, price budget.Cents) {
	if fl.span == nil {
		return
	}
	ext := fl.span.Child(obs.KindHIT, "extend")
	ext.AddCost(int64(price))
	ext.End()
	fl.span.AddExtensions(1)
	fl.span.AddCost(int64(price))
	s.mu.Lock()
	fl.extSpans = append(fl.extSpans, ext)
	s.mu.Unlock()
	if len(fl.opSpans) > 0 {
		fl.opSpans[0].AddExtensions(1)
		fl.opSpans[0].AddCost(int64(price))
	}
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricExtensions, obs.L("task", fl.hit.Task)).Add(1)
		reg.Counter(obs.MetricCostCents, obs.L("task", fl.hit.Task)).Add(int64(price))
	}
}

// traceHITDone closes out a finalized HIT: assignments are attributed
// to the submitting operators, inference posteriors (posts, by item
// slot, when an EM fit resolved the answers) are annotated in HIT item
// order, and the round-trip and extension-depth distributions observe
// the completion.
func (m *Manager) traceHITDone(fl *inflightHIT, latencyMin float64, posts []infer.Posterior) {
	sp := fl.span
	if sp == nil {
		return
	}
	for _, op := range fl.opSpans {
		op.AddAssignments(int64(fl.assign))
	}
	for i, p := range posts {
		if !fl.items[i].detached {
			sp.Annotate("posterior."+fl.items[i].key, fmt.Sprintf("%v p=%.3f", p.Value, p.Confidence))
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

// traceDirectHIT opens a HIT span for the single-post paths — grouped,
// join-grid and comparison HITs — parented to the scope's query span
// (or a synthetic root when unscoped), and records the posting metrics.
func (m *Manager) traceDirectHIT(scope *Scope, hitID, task, backendName string, cost budget.Cents) *obs.Span {
	tr := m.getObs()
	if tr == nil {
		return nil
	}
	var sp *obs.Span
	if parent := scope.Span(); parent != nil {
		sp = parent.Child(obs.KindHIT, hitID)
	} else {
		sp = tr.StartRoot(obs.KindHIT, hitID)
	}
	sp.Annotate("task", task)
	sp.Annotate("backend", backendName)
	sp.AddHITs(1)
	sp.AddCost(int64(cost))
	if reg := tr.Registry(); reg != nil {
		reg.Counter(obs.MetricHITsPosted, obs.L("task", task), obs.L("backend", backendName)).Add(1)
		reg.Counter(obs.MetricCostCents, obs.L("task", task)).Add(int64(cost))
		reg.Gauge(obs.MetricInflightHITs).Add(1)
	}
	return sp
}

// traceDirectAssignment mirrors traceAssignment for the join/rank
// in-flight types. Called with the stripe lock held.
func (m *Manager) traceDirectAssignment(sp *obs.Span, task, workerID string) {
	if sp == nil {
		return
	}
	sp.Child(obs.KindAssignment, workerID).End()
	sp.AddAssignments(1)
	if reg := m.obsRegistry(); reg != nil {
		reg.Counter(obs.MetricAssignments, obs.L("task", task)).Add(1)
	}
}

// traceDirectDone closes a join/rank HIT span at finalization.
func (m *Manager) traceDirectDone(sp *obs.Span, task, backendName string, latencyMin float64) {
	if sp == nil {
		return
	}
	sp.End()
	if reg := m.obsRegistry(); reg != nil {
		reg.Histogram(obs.MetricHITRoundTrip, obs.MinuteBuckets,
			obs.L("task", task), obs.L("backend", backendName)).Observe(latencyMin)
		reg.Gauge(obs.MetricInflightHITs).Add(-1)
	}
}

// traceDirectGone closes a join/rank HIT span that is retiring without
// finalizing — canceled by its scope or starved of assignments.
func (m *Manager) traceDirectGone(sp *obs.Span, reason string) {
	if sp == nil {
		return
	}
	sp.Annotate("error", reason)
	sp.End()
	if reg := m.obsRegistry(); reg != nil {
		reg.Gauge(obs.MetricInflightHITs).Add(-1)
	}
}
