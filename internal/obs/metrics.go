package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (task, backend, scope, ...).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Nil-receiver safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the counter. Nil-receiver safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-or-add metric whose last value is exported. It has a
// Counter's layout, so a series keeps either in the same word.
type Gauge Counter

// Set stores the gauge value. Nil-receiver safe.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge. Nil-receiver safe.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge. Nil-receiver safe.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histScale fixes the sum's fixed-point resolution (micro-units), so
// Observe never needs floating-point atomics.
const histScale = 1e6

// Histogram is a fixed-bucket distribution over float64 observations
// (virtual minutes, fill ratios). Buckets are cumulative at render time
// (Prometheus `le` semantics); storage is per-bucket atomics.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound, plus the +Inf overflow at the end
	sum     atomic.Int64   // observation * histScale
}

// Observe records one sample. Nil-receiver safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(int64(v * histScale))
}

// Count reports the number of samples. Nil-receiver safe.
func (h *Histogram) Count() (n int64) {
	if h != nil {
		for i := range h.buckets {
			n += h.buckets[i].Load()
		}
	}
	return n
}

// Sum reports the total of all samples. Nil-receiver safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) / histScale
}

// MinuteBuckets is the default latency bucket layout, in virtual
// minutes: sub-minute admission waits up through multi-hour HIT tails.
var MinuteBuckets = []float64{0.5, 1, 2, 5, 10, 15, 30, 60, 120, 240}

// RatioBuckets is the default layout for 0..1 ratios (batch fill).
var RatioBuckets = []float64{0.25, 0.5, 0.75, 0.9, 1}

// DepthBuckets is the default layout for small depths (extensions/HIT).
var DepthBuckets = []float64{0, 1, 2, 3, 5, 8}

// Registry holds named, labeled metric series. Their owners resolve
// them at their first event into the Refs they keep.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// The kinds of series, indexes of their names in the text format.
const kindCounter, kindGauge, kindHistogram = 0, 1, 2

type series struct {
	key  string // the name, then each label's key and value, NUL-separated
	kind uint8
	c    Counter // a counter's or a gauge's value
	h    *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup returns the series of name and labels, creating it as a k (a
// histogram with bounds) on first use; finding one allocates nothing.
func (r *Registry) lookup(name string, k uint8, bounds []float64, labels []Label) *series {
	var buf [128]byte
	key := append(buf[:0], name...)
	for _, l := range labels {
		key = append(append(append(append(key, 0), l.Key...), 0), l.Value...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.series == nil {
		r.series = make(map[string]*series, 24) // an engine's usual count
	}
	s := r.series[string(key)]
	if s == nil {
		s = &series{key: string(key), kind: k}
		if k == kindHistogram {
			s.h = &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
		}
		r.series[s.key] = s
	}
	return s
}

// Counter returns (creating on first use) the counter series for
// name+labels. A nil registry returns a nil counter, whose Add no-ops.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &r.lookup(name, kindCounter, nil, labels).c
}

// Gauge returns (creating on first use) the gauge series for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return (*Gauge)(&r.lookup(name, kindGauge, nil, labels).c)
}

// Histogram returns (creating on first use) the histogram series for
// name+labels with the given bucket bounds; the first creation's win.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, bounds, labels).h
}

// Ref is one series as its owner keeps it: resolved at its first
// event, then reached with one atomic load. The zero Ref is unresolved;
// two racing resolutions find the same series.
type Ref struct{ p atomic.Pointer[series] }

func (f *Ref) resolve(r *Registry, name string, k uint8, bounds []float64, labels []Label) *series {
	s := f.p.Load()
	if s == nil {
		s = r.lookup(name, k, bounds, labels)
		f.p.Store(s)
	}
	return s
}

// Counter returns the counter of name and labels in r, resolved once.
func (f *Ref) Counter(r *Registry, name string, labels ...Label) *Counter {
	return &f.resolve(r, name, kindCounter, nil, labels).c
}

// Gauge returns the gauge of name and labels in r, resolved once.
func (f *Ref) Gauge(r *Registry, name string, labels ...Label) *Gauge {
	return (*Gauge)(&f.resolve(r, name, kindGauge, nil, labels).c)
}

// Histogram returns the histogram of name and labels in r, resolved
// once with bounds.
func (f *Ref) Histogram(r *Registry, name string, bounds []float64, labels ...Label) *Histogram {
	return f.resolve(r, name, kindHistogram, bounds, labels).h
}

// Value reads a counter's or gauge's value, 0 before its first event.
func (f *Ref) Value() int64 {
	if s := f.p.Load(); s != nil {
		return s.c.Value()
	}
	return 0
}

// labelString renders {k="v",...} with keys sorted, or "" without labels.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every series in the text exposition format,
// families sorted by name and series by label string, so identical
// registries render byte-identically. Nil-receiver safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type row struct {
		s            *series
		name, labels string // labels as labelString renders them
		ls           []Label
	}
	r.mu.Lock()
	rows := make([]row, 0, len(r.series))
	for key, s := range r.series {
		parts := strings.Split(key, "\x00")
		rw := row{s: s, name: parts[0]}
		for j := 1; j+1 < len(parts); j += 2 {
			rw.ls = append(rw.ls, L(parts[j], parts[j+1]))
		}
		rw.labels = labelString(rw.ls)
		rows = append(rows, rw)
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].name != rows[j].name {
			return rows[i].name < rows[j].name
		}
		return rows[i].labels < rows[j].labels
	})

	var b strings.Builder
	for i, rw := range rows {
		s, name, ls := rw.s, rw.name, rw.labels
		if i == 0 || rows[i-1].name != name {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, [...]string{"counter", "gauge", "histogram"}[s.kind])
		}
		switch s.kind {
		case kindHistogram:
			cum := int64(0)
			for i, bound := range s.h.bounds {
				cum += s.h.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", name,
					labelString(rw.ls, L("le", trimFloat(bound))), cum)
			}
			cum += s.h.buckets[len(s.h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, labelString(rw.ls, L("le", "+Inf")), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", name, ls, trimFloat(s.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", name, ls, s.h.Count())
		default:
			fmt.Fprintf(&b, "%s%s %d\n", name, ls, s.c.Value())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Metric names shared by the instrumented layers. Centralized so the
// dashboard, tests and docs agree on spelling.
const (
	MetricQueries          = "qurk_queries_total"
	MetricPlanCacheHits    = "qurk_plan_cache_hits_total"
	MetricPlanCacheMiss    = "qurk_plan_cache_misses_total"
	MetricPlanCacheInval   = "qurk_plan_cache_invalidations_total"
	MetricPlanSavedNs      = "qurk_plan_cache_saved_nanoseconds_total"
	MetricSubmissions      = "qurk_submissions_total"
	MetricQuestions        = "qurk_questions_asked_total"
	MetricBatchesPosted    = "qurk_batches_posted_total"
	MetricHITsPosted       = "qurk_hits_posted_total"
	MetricAssignments      = "qurk_assignments_total"
	MetricCostCents        = "qurk_cost_cents_total"
	MetricRefundCents      = "qurk_refund_cents_total"
	MetricCacheHits        = "qurk_cache_hits_total"
	MetricModelAnswers     = "qurk_model_answers_total"
	MetricSharedHITs       = "qurk_shared_hits_total"
	MetricCoBatchedItems   = "qurk_cobatched_items_total"
	MetricSharedHITsSaved  = "qurk_shared_hits_saved_total"
	MetricSharedSavedCents = "qurk_shared_saved_cents_total"
	MetricAdaptiveHITs     = "qurk_adaptive_hits_total"
	MetricExtensions       = "qurk_extensions_total"
	MetricExtendFailures   = "qurk_extend_failures_total"
	MetricAdaptiveAssigned = "qurk_adaptive_assignments_total"
	MetricAdaptiveCap      = "qurk_adaptive_assignment_cap_total"
	MetricInferenceSaved   = "qurk_inference_saved_cents_total"
	MetricInflightHITs     = "qurk_inflight_hits"
	MetricHITRoundTrip     = "qurk_hit_roundtrip_minutes"
	MetricAdmissionWait    = "qurk_admission_wait_minutes"
	MetricBatchFillRatio   = "qurk_batch_fill_ratio"
	MetricExtensionDepth   = "qurk_extension_depth"
)
