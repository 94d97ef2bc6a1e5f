package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/crowd"
	"repro/internal/qlang"
	"repro/qurk"
)

// options fix one pass of one workload.
type options struct {
	seed    int64
	seconds time.Duration
	sizes   sizes
	// minDiv divides every workload's minimum rounds (0 means 1).
	minDiv int
	// outDir holds profiles and result files; store directories are made
	// under it too, so a run writes nothing outside it.
	outDir string
}

// runner drives one pass of one workload. It builds engines, issues
// queries, audits each engine when it is retired and keeps the samples
// the metrics are computed from. Its methods are safe for the concurrent
// clients of a workload.
type runner struct {
	opts options
	lay  *layers // nil in an untraced pass
	host hostClock

	goroutines0 int

	// The timed phase runs from begin to the retire of the last engine.
	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	profile *os.File
	ended   bool
	wall    time.Duration
	cpu     time.Duration
	ms1     runtime.MemStats
	// heapMB samples the live heap at round ends, engine still open.
	heapMB []float64

	mu sync.Mutex
	// attempted counts Query calls; queries those that ended cleanly and
	// gave a latency sample.
	attempted int
	queries   int
	latMs     []float64
	firstMs   []float64
	setupS    []float64
	f1Sum     float64
	f1N       int
	failures  map[string]int
	hits      int64
	cents     int64
	vmin      float64
}

func newRunner(opts options, lay *layers) *runner {
	return &runner{opts: opts, lay: lay, failures: map[string]int{}, goroutines0: runtime.NumGoroutine()}
}

// measureWorkload makes the untraced pass and reports the end-to-end
// metrics.
func measureWorkload(w workload, opts options) (report, error) {
	r, err := runPass(w, opts, nil)
	if err != nil {
		return report{}, err
	}
	metrics, times, notes := r.endToEnd()
	return report{workload: w.name, attempted: r.attempted, failures: r.failures,
		metrics: metrics, hostTimes: times, notes: notes}, nil
}

// traceWorkload makes an untraced pass, for the tracing overhead, then a
// traced pass over the same inputs, and reports the per-layer metrics.
// No per-layer metric is a tail percentile, so each pass gets half the
// seconds and a quarter of the minimum rounds: a traced run takes about
// as long as an untraced one.
func traceWorkload(w workload, opts options) (report, error) {
	opts.seconds /= 2
	opts.minDiv = 4
	plain, err := runPass(w, opts, nil)
	if err != nil {
		return report{}, err
	}
	traced, err := runPass(w, opts, newLayers(filepath.Join(opts.outDir, w.name+".cpu.pprof")))
	if err != nil {
		return report{}, err
	}
	values, err := traced.lay.values(traced, plain.cpuPerQuery()/plain.host.slowdown())
	if err != nil {
		return report{}, err
	}
	failures := map[string]int{}
	for _, f := range []map[string]int{plain.failures, traced.failures} {
		for k, v := range f {
			failures[k] += v
		}
	}
	return report{
		workload:  w.name,
		attempted: plain.attempted + traced.attempted,
		failures:  failures,
		metrics:   fill(perLayer, values),
	}, nil
}

func runPass(w workload, opts options, lay *layers) (*runner, error) {
	r := newRunner(opts, lay)
	if err := w.run(r); err != nil {
		r.end() // stops a CPU profile left running by a failed pass
		return nil, err
	}
	if !r.ended {
		return nil, fmt.Errorf("workload never retired its last engine")
	}
	r.checkGoroutines()
	return r, nil
}

// begin starts the timed phase, after the workload's one-time
// preparation (dataset generation, store warm-up).
func (r *runner) begin() error {
	runtime.GC()
	if r.lay != nil {
		f, err := os.Create(r.lay.profilePath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		r.profile = f
	}
	r.t0 = time.Now()
	r.cpu0 = cpuTime()
	runtime.ReadMemStats(&r.ms0)
	return nil
}

// rounds starts the timed phase and runs the closed loop: round i builds
// an engine, runs its queries and returns the engine still open, and the
// loop retires it. Rounds go on until the run has lasted its seconds and
// made at least min rounds, so every round is whole and the same on
// both commits of a comparison.
func (r *runner) rounds(min int, round func(i int) (*qurk.Engine, error)) error {
	min = max(min/max(r.opts.minDiv, 1), 1)
	heapEvery := max(min/8, 1)
	if err := r.begin(); err != nil {
		return err
	}
	r.host.tick()
	for i := 0; ; i++ {
		eng, err := round(i)
		if err != nil {
			return err
		}
		last := i+1 >= min && time.Since(r.t0) >= r.opts.seconds
		if !last && (i+1)%heapEvery == 0 {
			r.sampleHeap()
		}
		r.retire(eng, last)
		if last {
			return nil
		}
		r.host.tick()
	}
}

// sampleHeap records the live heap after a full collection.
func (r *runner) sampleHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapMB = append(r.heapMB, float64(m.HeapAlloc)/(1<<20))
}

// end closes the timed phase and samples the heap the last engine
// retains.
func (r *runner) end() {
	if r.ended {
		return
	}
	r.ended = true
	r.wall = time.Since(r.t0)
	r.cpu = cpuTime() - r.cpu0
	runtime.ReadMemStats(&r.ms1)
	if r.profile != nil {
		pprof.StopCPUProfile()
		r.profile.Close()
	}
	r.sampleHeap()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newEngine builds one engine through the public API and times it:
// construction (with any store replay), registration and Define are
// the set-up time.
func (r *runner) newEngine(cfg qurk.Config, tables []*qurk.Table, tasks string) (*qurk.Engine, error) {
	if r.lay != nil {
		cfg.Trace = true
		cfg.Pool = &timedPool{pool: crowd.NewPool(cfg.Crowd, cfg.Oracle), st: &r.lay.pool}
	}
	start := time.Now()
	eng, err := qurk.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		if err := eng.Register(t); err != nil {
			eng.Close()
			return nil, err
		}
	}
	if err := eng.Define(tasks); err != nil {
		eng.Close()
		return nil, err
	}
	d := time.Since(start)
	r.mu.Lock()
	r.setupS = append(r.setupS, d.Seconds())
	r.mu.Unlock()
	return eng, nil
}

// query runs one statement through Engine.Query and drains its Rows. A
// query whose Query call or Rows.Err fails is counted as failed and
// returns ok=false.
func (r *runner) query(eng *qurk.Engine, sql string, opts ...qurk.QueryOption) (rows []qurk.Tuple, ok bool) {
	var parse time.Duration
	if r.lay != nil {
		t := time.Now()
		_, _ = qlang.ParseQuery(sql)
		parse = time.Since(t)
	}
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	start := time.Now()
	cur, err := eng.Query(context.Background(), sql, opts...)
	started := time.Since(start)
	if err != nil {
		r.fail("query_error")
		return nil, false
	}
	var first, wait time.Duration
	pending := 0
	for {
		t := time.Now()
		more := cur.Next()
		if r.lay != nil {
			wait += time.Since(t)
			pending = max(pending, eng.Clock().Pending())
		}
		if !more {
			break
		}
		if rows == nil {
			first = time.Since(start)
		}
		rows = append(rows, cur.Tuple())
	}
	lat := time.Since(start)
	err = cur.Err()
	cur.Close()
	if err != nil {
		r.fail("query_error")
		return nil, false
	}
	r.mu.Lock()
	r.queries++
	r.latMs = append(r.latMs, ms(lat))
	if rows != nil {
		r.firstMs = append(r.firstMs, ms(first))
	}
	r.mu.Unlock()
	if r.lay != nil {
		r.lay.query(parse, started, wait, lat, pending, cur.Handle())
	}
	return rows, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// score adds one query's result F1 against the oracle to result_f1.
func (r *runner) score(f float64) {
	r.mu.Lock()
	r.f1Sum += f
	r.f1N++
	r.mu.Unlock()
}

// scoreFloor scores a query and fails the named check when its F1 is
// under floor: a wrong answer at unchanged spend shows as an error.
func (r *runner) scoreFloor(check string, f, floor float64) {
	r.score(f)
	r.check(check, f >= floor)
}

func (r *runner) check(name string, ok bool) {
	if !ok {
		r.fail(name)
	}
}

func (r *runner) fail(name string) {
	r.mu.Lock()
	r.failures[name]++
	r.mu.Unlock()
}

// retire audits an engine whose queries have all finished, adds its
// crowd spend to the totals and closes it. For the run's last engine the
// timed phase ends, and the retained heap is sampled, before it closes.
func (r *runner) retire(eng *qurk.Engine, last bool) {
	mgr := eng.Manager()
	quiet := func() bool { return mgr.Pending() == 0 && mgr.Inflight() == 0 && ledgerDrift(eng) == 0 }
	// Answers can still be landing for a moment after the last row.
	for deadline := time.Now().Add(5 * time.Second); !quiet() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	pending, inflight, drift := mgr.Pending(), mgr.Inflight(), ledgerDrift(eng)
	r.check("pending_at_end", pending == 0)
	r.check("inflight_at_end", inflight == 0)
	r.check("ledger_audit", drift == 0)
	if st := eng.Store(); st != nil {
		r.check("store_dropped", st.Stats().Dropped == 0)
	}
	r.mu.Lock()
	r.hits += int64(eng.Marketplace().Stats().HITsPosted)
	r.cents += int64(mgr.Account().Spent())
	r.vmin += eng.Clock().Now().Minutes()
	r.mu.Unlock()
	if r.lay != nil {
		r.lay.engine(eng, pending, inflight, drift)
	}
	if last {
		r.end()
	}
	eng.Close()
}

// ledgerDrift is the per-query sunk cost summed over the engine's
// queries minus what its account spent: zero when every cent is owned by
// exactly one query.
func ledgerDrift(eng *qurk.Engine) int64 {
	var sunk qurk.Cents
	for _, h := range eng.Queries() {
		sunk += h.SunkCents()
	}
	return int64(sunk - eng.Manager().Account().Spent())
}

// checkGoroutines fails the run when goroutines outlive the engines'
// Close.
func (r *runner) checkGoroutines() {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > r.goroutines0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	leaked := max(runtime.NumGoroutine()-r.goroutines0, 0)
	r.check("goroutines_leaked", leaked == 0)
	if r.lay != nil {
		r.lay.leaked = leaked
	}
}

func (r *runner) cpuPerQuery() float64 {
	return ms(r.cpu) / float64(max(r.queries, 1))
}

// endToEnd computes the end-to-end metrics and host times of an untraced
// pass, and notes giving the sample counts and the raw host times. A p99
// without enough samples beyond it fails a check.
func (r *runner) endToEnd() (metrics, times []metric, notes []string) {
	q := float64(max(r.queries, 1))
	p50 := func(xs []float64) float64 {
		v, _ := percentile(xs, 50)
		return v
	}
	p99 := func(xs []float64, check string) float64 {
		v, ok := percentile(xs, 99)
		r.check(check, ok)
		return v
	}
	v := map[string]float64{
		"setup_s":            median(r.setupS),
		"latency_ms.p50":     p50(r.latMs),
		"latency_ms.p99":     p99(r.latMs, "latency_samples"),
		"first_row_ms.p50":   p50(r.firstMs),
		"first_row_ms.p99":   p99(r.firstMs, "first_row_samples"),
		"queries_per_s":      float64(r.queries) / r.wall.Seconds(),
		"cpu_ms_per_query":   r.cpuPerQuery(),
		"alloc_kb_per_query": float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc-r.host.allocBytes) / 1024 / q,
		"allocs_per_query":   float64(r.ms1.Mallocs-r.ms0.Mallocs-r.host.allocs) / q,
		"retained_heap_mb":   median(r.heapMB),
		"cents_per_query":    float64(r.cents) / q,
		"hits_per_query":     float64(r.hits) / q,
		"vmin_per_query":     r.vmin / q,
		"result_f1":          r.f1Sum / float64(max(r.f1N, 1)),
	}
	// Report every host time at nominal host speed.
	slow := r.host.slowdown()
	raw := fmt.Sprintf("host: reference kernel median %.4g ms over %d timings, slowdown %.4f; raw", slow*ms(refNominal), len(r.host.samples), slow)
	scale := func(name string, rate bool) {
		raw += fmt.Sprintf(" %s=%s", name, formatValue(v[name]))
		if rate {
			v[name] *= slow
		} else {
			v[name] /= slow
		}
	}
	scale("setup_s", false)
	for _, d := range hostTimes {
		scale(d.name, d.better == "higher")
	}
	samples := fmt.Sprintf("samples: latency %d, first row %d", len(r.latMs), len(r.firstMs))
	return fill(endToEnd, v), fill(hostTimes, v), []string{samples, raw}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
