package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/taskmgr"
	"repro/qurk"
)

// layers collects the traced pass's per-layer measurements: timed calls
// into the layers' public functions, counters the engine already
// exposes, the obs registry's histograms and a CPU profile.
type layers struct {
	profilePath string
	pool        poolStats

	mu             sync.Mutex
	parseUS        []float64
	startUS        []float64
	nextWait       time.Duration
	queryWall      time.Duration
	pendingMax     int
	goroutinesPeak int
	sorts          int
	compareHITs    int64
	rateAsks       int64
	strategies     map[string]int
	joins          int
	pairsPaid      int64
	pairsAvoided   int64

	engines      int
	planHits     int64
	planLookups  int64
	cacheHits    int64
	cacheLookups int64
	cacheEntries int64
	inference    taskmgr.InferenceStats
	sharedHITs   int64
	cobatched    int64
	pendingEnd   int
	inflightEnd  int
	hitsPosted   int64
	assignments  int64
	questions    int64
	retainedHITs int
	hist         map[string]histSum
	ledgerDrift  int64
	appended     int64
	dropped      int64
	compactions  int64

	// Set by point_lookups from store.Open on copies of its warmed store.
	replayMs        float64
	recordsReplayed int64
	bytesPerRecord  float64

	leaked int
}

func newLayers(profilePath string) *layers {
	return &layers{profilePath: profilePath, strategies: map[string]int{}, hist: map[string]histSum{}}
}

// query records the timed calls around one finished query and the
// executor's report of its sorts and joins.
func (l *layers) query(parse, started, wait, wall time.Duration, pending int, h *core.QueryHandle) {
	goroutines := runtime.NumGoroutine()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.parseUS = append(l.parseUS, float64(parse)/1e3)
	l.startUS = append(l.startUS, float64(started)/1e3)
	l.nextWait += wait
	l.queryWall += wall
	l.pendingMax = max(l.pendingMax, pending)
	l.goroutinesPeak = max(l.goroutinesPeak, goroutines)
	for _, rs := range h.Exec.RankStats() {
		l.sorts++
		l.compareHITs += int64(rs.CompareHITs)
		l.rateAsks += int64(rs.RateAsks)
		l.strategies[rs.Strategy]++
	}
	if reds := h.Exec.JoinReductions(); len(reds) > 0 {
		l.joins++
		for _, red := range reds {
			l.pairsPaid += red.LeftKept * red.RightKept
			l.pairsAvoided += red.PairsAvoided
		}
	}
}

// engine records the counters of an engine being retired.
func (l *layers) engine(eng *qurk.Engine, pending, inflight int, drift int64) {
	var prom bytes.Buffer
	_ = eng.Metrics().WritePrometheus(&prom) // writes to a bytes.Buffer do not fail
	pc := eng.PlanCacheStats()
	mgr := eng.Manager()
	cs := mgr.Cache().Stats()
	inf := mgr.InferenceStats()
	sh := mgr.Sharing()
	ms := eng.Marketplace().Stats()
	retained := len(eng.Marketplace().AllHITs())
	var st store.Stats
	if s := eng.Store(); s != nil {
		st = s.Stats()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.engines++
	l.planHits += pc.Hits
	l.planLookups += pc.Hits + pc.Misses + pc.Invalidations
	l.cacheHits += cs.Hits
	l.cacheLookups += cs.Hits + cs.Misses
	l.cacheEntries += int64(cs.Entries)
	l.inference.AdaptiveHITs += inf.AdaptiveHITs
	l.inference.Extensions += inf.Extensions
	l.inference.ExtendFailures += inf.ExtendFailures
	l.inference.AssignmentsUsed += inf.AssignmentsUsed
	l.inference.AssignmentsCap += inf.AssignmentsCap
	l.sharedHITs += sh.SharedHITs
	l.cobatched += sh.CoBatchedItems
	l.pendingEnd = max(l.pendingEnd, pending)
	l.inflightEnd = max(l.inflightEnd, inflight)
	l.hitsPosted += int64(ms.HITsPosted)
	l.assignments += int64(ms.AssignmentsCompleted)
	l.questions += int64(ms.QuestionsAnswered)
	l.retainedHITs = retained
	for name, h := range promHistograms(prom.String()) {
		acc := l.hist[name]
		acc.sum += h.sum
		acc.count += h.count
		l.hist[name] = acc
	}
	l.ledgerDrift += abs(drift)
	l.appended += st.Appended
	l.dropped += st.Dropped
	l.compactions += st.Compactions
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// measureReplay times store.Open on fresh copies of a warmed store
// directory and records the median, with the records replayed and the
// directory's bytes per record.
func (l *layers) measureReplay(warmed, scratch string, times int) error {
	var samples []float64
	var records int64
	for i := 0; i < times; i++ {
		dir := filepath.Join(scratch, "replay"+strconv.Itoa(i))
		if err := copyDir(warmed, dir); err != nil {
			return err
		}
		t := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		samples = append(samples, ms(time.Since(t)))
		records = st.Replay().Records
		if err := st.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	size, err := dirBytes(warmed)
	if err != nil {
		return err
	}
	l.replayMs = median(samples)
	l.recordsReplayed = records
	if records > 0 {
		l.bytesPerRecord = float64(size) / float64(records)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// values computes the per-layer metrics of a finished traced pass.
// plainCPU is the untraced pass's cpu_ms_per_query at nominal host speed.
func (l *layers) values(r *runner, plainCPU float64) (map[string]float64, error) {
	data, err := os.ReadFile(l.profilePath)
	if err != nil {
		return nil, err
	}
	samples, err := readProfile(data)
	if err != nil {
		return nil, err
	}
	q := float64(max(r.queries, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(name string) float64 { h := l.hist[name]; return ratio(h.sum, h.count) }
	claims := float64(l.pool.claims.Load())
	v := map[string]float64{
		"qlang.parse_us.p50":                median(l.parseUS),
		"core.query_start_us.p50":           median(l.startUS),
		"core.plan_cache_hit_ratio":         ratio(float64(l.planHits), float64(l.planLookups)),
		"core.rows_wait_share":              ratio(float64(l.nextWait), float64(l.queryWall)),
		"exec.join_pairs_paid":              ratio(float64(l.pairsPaid), float64(l.joins)),
		"exec.join_pairs_avoided":           ratio(float64(l.pairsAvoided), float64(l.joins)),
		"taskmgr.batch_fill_ratio":          mean(obs.MetricBatchFillRatio),
		"taskmgr.admission_wait_vmin.mean":  mean(obs.MetricAdmissionWait),
		"taskmgr.hit_roundtrip_vmin.mean":   mean(obs.MetricHITRoundTrip),
		"taskmgr.shared_hits_per_query":     float64(l.sharedHITs) / q,
		"taskmgr.cobatched_items_per_query": float64(l.cobatched) / q,
		"taskmgr.pending_at_end":            float64(l.pendingEnd),
		"taskmgr.inflight_at_end":           float64(l.inflightEnd),
		"infer.assignments_per_hit":         ratio(float64(l.inference.AssignmentsUsed), float64(l.inference.AdaptiveHITs)),
		"infer.extensions_per_query":        float64(l.inference.Extensions) / q,
		"infer.extend_failures":             float64(l.inference.ExtendFailures),
		"infer.cap_saved_ratio":             ratio(float64(l.inference.AssignmentsCap-l.inference.AssignmentsUsed), float64(l.inference.AssignmentsCap)),
		"rank.compare_hits_per_sort":        ratio(float64(l.compareHITs), float64(l.sorts)),
		"rank.rate_asks_per_sort":           ratio(float64(l.rateAsks), float64(l.sorts)),
		"rank.strategy.rate":                ratio(float64(l.strategies["rate"]), float64(l.sorts)),
		"rank.strategy.compare":             ratio(float64(l.strategies["compare"]), float64(l.sorts)),
		"rank.strategy.hybrid":              ratio(float64(l.strategies["hybrid"]), float64(l.sorts)),
		"mturk.assignments_per_hit":         ratio(float64(l.assignments), float64(l.hitsPosted)),
		"mturk.questions_per_hit":           ratio(float64(l.questions), float64(l.assignments)),
		"mturk.retained_hits":               float64(l.retainedHITs),
		"mturk.clock_pending_max":           float64(l.pendingMax),
		"crowd.claims_per_query":            claims / q,
		"crowd.claim_ns.mean":               ratio(float64(l.pool.claimNs.Load()), claims),
		"crowd.refusal_ratio":               ratio(float64(l.pool.refusals.Load()), claims),
		"crowd.answer_ns.mean":              ratio(float64(l.pool.answerNs.Load()), float64(l.pool.answers.Load())),
		"cache.hit_ratio":                   ratio(float64(l.cacheHits), float64(l.cacheLookups)),
		"cache.entries":                     ratio(float64(l.cacheEntries), float64(l.engines)),
		"store.replay_ms":                   l.replayMs,
		"store.records_replayed":            float64(l.recordsReplayed),
		"store.appended_per_query":          float64(l.appended) / q,
		"store.dropped":                     float64(l.dropped),
		"store.bytes_per_record":            l.bytesPerRecord,
		"store.compactions":                 float64(l.compactions),
		"budget.ledger_drift_cents":         float64(l.ledgerDrift),
		"runtime.gc_cycles_per_query":       float64(r.ms1.NumGC-r.ms0.NumGC) / q,
		"runtime.gc_pause_ms_per_query":     float64(r.ms1.PauseTotalNs-r.ms0.PauseTotalNs) / 1e6 / q,
		"runtime.goroutines_peak":           float64(l.goroutinesPeak),
		"runtime.goroutines_leaked":         float64(l.leaked),
		"trace.overhead_ratio":              ratio(r.cpuPerQuery()/r.host.slowdown(), plainCPU),
	}
	for layer, share := range cpuShares(samples) {
		v["cpu_share."+layer] = share
	}
	return v, nil
}

// poolStats are the timed pool's counters; atomics, because every
// marketplace shard claims concurrently.
type poolStats struct {
	claims, refusals, claimNs atomic.Int64
	answers, answerNs         atomic.Int64
}

// timedPool wraps the simulated crowd passed to the engine as
// Config.Pool, timing each claim and each answer the crowd produces.
type timedPool struct {
	pool mturk.WorkerPool
	st   *poolStats
}

func (p *timedPool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	t := time.Now()
	c, ok := p.pool.Claim(h, now)
	p.st.claimNs.Add(int64(time.Since(t)))
	p.st.claims.Add(1)
	if !ok {
		p.st.refusals.Add(1)
		return c, ok
	}
	answer := c.Answer
	c.Answer = func() (hit.Answers, error) {
		t := time.Now()
		a, err := answer()
		p.st.answerNs.Add(int64(time.Since(t)))
		p.st.answers.Add(1)
		return a, err
	}
	return c, ok
}

type histSum struct{ sum, count float64 }

// promHistograms sums each histogram family's _sum and _count series
// over its label sets, read from the Prometheus text format.
func promHistograms(text string) map[string]histSum {
	out := map[string]histSum{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		if base, ok := strings.CutSuffix(name, "_sum"); ok {
			h := out[base]
			h.sum += v
			out[base] = h
		} else if base, ok := strings.CutSuffix(name, "_count"); ok {
			h := out[base]
			h.count += v
			out[base] = h
		}
	}
	return out
}
