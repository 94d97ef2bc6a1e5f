package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. endToEnd and perLayer define what
// the result line reports: BENCHMARK.json repeats them and a test keeps
// the two identical.
type metricDef struct{ name, unit, better string }

// endToEnd are what a user of the engine sees, measured untraced. Apart
// from setup_s they do not depend on the host's speed, so a bound can
// hold them (see README.md, Host speed).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_query", "KB", "lower"},
	{"allocs_per_query", "count", "lower"},
	{"retained_heap_mb", "MB", "lower"},
	{"cents_per_query", "cents", "lower"},
	{"hits_per_query", "count", "lower"},
	{"vmin_per_query", "vmin", "lower"},
	{"result_f1", "ratio", "higher"},
}

// hostTimes are the end-to-end times that move with the shared host's
// speed by more than any bound could allow. Every untraced run measures
// and prints them, at nominal host speed, but they are not in the result
// line.
var hostTimes = []metricDef{
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p99", "ms", "lower"},
	{"first_row_ms.p50", "ms", "lower"},
	{"first_row_ms.p99", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"cpu_ms_per_query", "ms", "lower"},
}

// cpuLayers are the layers CPU profile samples are charged to, named
// after the repository's packages (see layerOf for the few aliases).
var cpuLayers = []string{
	"qlang", "plan", "core", "exec", "relation", "taskmgr", "infer", "rank",
	"optimizer", "mturk", "backend", "crowd", "hit", "cache", "store",
	"budget", "obs", "runtime", "bench", "other",
}

// perLayer are measured in the traced pass only.
var perLayer = append([]metricDef{
	{"qlang.parse_us.p50", "us", "lower"},
	{"core.query_start_us.p50", "us", "lower"},
	{"core.plan_cache_hit_ratio", "ratio", "higher"},
	{"core.rows_wait_share", "ratio", "lower"},
	{"exec.join_pairs_paid", "count", "lower"},
	{"exec.join_pairs_avoided", "count", "higher"},
	{"taskmgr.batch_fill_ratio", "ratio", "higher"},
	{"taskmgr.admission_wait_vmin.mean", "vmin", "lower"},
	{"taskmgr.hit_roundtrip_vmin.mean", "vmin", "lower"},
	{"taskmgr.shared_hits_per_query", "count", "higher"},
	{"taskmgr.cobatched_items_per_query", "count", "higher"},
	{"taskmgr.pending_at_end", "count", "lower"},
	{"taskmgr.inflight_at_end", "count", "lower"},
	{"infer.assignments_per_hit", "count", "lower"},
	{"infer.extensions_per_query", "count", "lower"},
	{"infer.extend_failures", "count", "lower"},
	{"infer.cap_saved_ratio", "ratio", "higher"},
	{"rank.compare_hits_per_sort", "count", "lower"},
	{"rank.rate_asks_per_sort", "count", "lower"},
	{"rank.strategy.rate", "ratio", "higher"},
	{"rank.strategy.compare", "ratio", "lower"},
	{"rank.strategy.hybrid", "ratio", "higher"},
	{"mturk.assignments_per_hit", "count", "lower"},
	{"mturk.questions_per_hit", "count", "higher"},
	{"mturk.retained_hits", "count", "lower"},
	{"mturk.clock_pending_max", "count", "lower"},
	{"crowd.claims_per_query", "count", "lower"},
	{"crowd.claim_ns.mean", "ns", "lower"},
	{"crowd.refusal_ratio", "ratio", "lower"},
	{"crowd.answer_ns.mean", "ns", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.entries", "count", "higher"},
	{"store.replay_ms", "ms", "lower"},
	{"store.records_replayed", "count", "lower"},
	{"store.appended_per_query", "count", "lower"},
	{"store.dropped", "count", "lower"},
	{"store.bytes_per_record", "bytes", "lower"},
	{"store.compactions", "count", "lower"},
	{"budget.ledger_drift_cents", "cents", "lower"},
	{"runtime.gc_cycles_per_query", "count", "lower"},
	{"runtime.gc_pause_ms_per_query", "ms", "lower"},
	{"runtime.goroutines_peak", "count", "lower"},
	{"runtime.goroutines_leaked", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		defs[i] = metricDef{"cpu_share." + l, "ratio", "lower"}
	}
	return defs
}

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one workload in one mode.
type report struct {
	workload  string
	attempted int
	// failures counts failed queries and failed checks by name; every
	// count is part of the error total.
	failures map[string]int
	metrics  []metric
	// hostTimes and notes are printed after the metrics, each on a line
	// starting with #.
	hostTimes []metric
	notes     []string
}

func (r report) failed() int {
	n := 0
	for _, c := range r.failures {
		n += c
	}
	return n
}

func (r report) result() result {
	return result{
		Correct:   r.failed() == 0,
		Attempted: r.attempted,
		Failed:    r.failed(),
		Metrics:   values(r.metrics),
	}
}

func values(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return out
}

// fill orders values by defs and attaches their units; a metric without
// a value is reported as zero.
func fill(defs []metricDef, values map[string]float64) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = metric{name: d.name, value: values[d.name], unit: d.unit}
	}
	return out
}

// minTail is how many samples must lie beyond a tail percentile for it
// to be reported: p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the p-th percentile of xs by the nearest-rank rule,
// and whether at least minTail samples lie above it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minTail
}

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// f1 scores the keys a query returned against the true set. Duplicates
// count against precision; two empty sets agree perfectly.
func f1[K comparable](got []K, want map[K]bool) float64 {
	if len(got) == 0 && len(want) == 0 {
		return 1
	}
	tp := 0
	seen := make(map[K]bool, len(got))
	for _, k := range got {
		if want[k] && !seen[k] {
			tp++
		}
		seen[k] = true
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(len(got))
	r := float64(tp) / float64(len(want))
	return 2 * p * r / (p + r)
}

// overlap is the share of want that got contains: top-k agreement.
func overlap[K comparable](got, want []K) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[K]bool, len(got))
	for _, k := range got {
		in[k] = true
	}
	n := 0
	for _, k := range want {
		if in[k] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}
