// Package load is a deterministic crowd-scale load harness for the
// marketplace + task-manager stack: it drives tens of thousands of
// tuples through representative Qurk workloads (filter cascades, 5×5
// join grids, order-by ratings) against thousands of simulated workers
// and reports throughput, virtual-time HIT latency percentiles and cost.
//
// Determinism: the harness never runs the clock concurrently with
// submission. All root tasks are submitted first, then the event queue
// is pumped from a single goroutine (cascade submissions happen inside
// Done callbacks on that same goroutine), so every virtual-time metric
// in the Report is a pure function of the Config — identical seeds give
// byte-identical reports, modulo the real-time Wall/HITsPerSec fields.
package load

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/optimizer"
	"repro/internal/qlang"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/taskmgr"
	"repro/internal/workload"
)

// Workload names a load scenario.
type Workload string

// Supported workloads.
const (
	// WorkloadFilter runs a two-stage filter cascade (isCat → isOutdoor)
	// over a photo corpus; the second filter only sees survivors.
	WorkloadFilter Workload = "filter"
	// WorkloadJoin evaluates a celebrity join through 5×5 two-column
	// grid HITs (the paper's Figure 3 batching winner).
	WorkloadJoin Workload = "join"
	// WorkloadJoinPreFilter is the same celebrity join behind the
	// cost-based pre-filter: a probe measures the isCeleb feature
	// filter's selectivity, optimizer.DecidePreFilter compares the
	// filtered and unfiltered join costs, and (when it pays) only
	// filter survivors enter the grids. Compare against WorkloadJoin at
	// the same Tuples/Seed: fewer paid join pairs, same matches.
	WorkloadJoinPreFilter Workload = "joinprefilter"
	// WorkloadOrderBy rates every item on a 1–7 scale and sorts by the
	// mean rating (the paper's rating-based ORDER BY).
	WorkloadOrderBy Workload = "orderby"
	// WorkloadSort drives the human-powered ranking subsystem
	// (internal/rank) four ways over one dataset — rating sort,
	// all-pairs S-way comparison sort, comparison with top-k pushdown,
	// and the rate-then-refine hybrid — each in an isolated
	// deterministic phase, reporting per-strategy HIT counts and order
	// fingerprints. Defaults to a near-perfect crowd so strategy
	// economics, not answer noise, dominate the comparison.
	WorkloadSort Workload = "sort"
	// WorkloadStreaming drives the context-first query API end to end:
	// a filter query consumed through a streaming Rows cursor against a
	// single saturated worker, so the first tuple provably arrives while
	// later HITs are still in flight, and (with CancelAfter) context
	// cancellation mid-stream provably stops HIT posting with a
	// deterministic completed-prefix fingerprint.
	WorkloadStreaming Workload = "streaming"
	// WorkloadMultiTenant drives Config.Queries concurrent streaming
	// queries through one engine — each filtering its own disjoint
	// table with the same task — with cross-query HIT sharing on
	// (unless NoShare) behind a MaxInflight admission gate. The default
	// crowd is exactly perfect, so per-query result fingerprints are
	// rerun-identical with sharing on or off; compare two runs at the
	// same Tuples/Queries/Seed with NoShare flipped: same fingerprints,
	// strictly fewer HITs with sharing.
	WorkloadMultiTenant Workload = "multitenant"
	// WorkloadHybridCrowd runs the filter cascade twice over one
	// dataset: a sim-only baseline, then through a worker-backend
	// router that serves the first-stage filter from a deterministic
	// LLM crowd at a cheaper per-assignment quote while the second
	// stage stays on the simulated human marketplace. Compare inside
	// one report: identical result fingerprints, strictly lower routed
	// spend, HITs split across both backends.
	WorkloadHybridCrowd Workload = "hybridcrowd"
	// WorkloadInference runs the filter cascade twice over one dataset:
	// a fixed-redundancy majority-vote baseline, then with EM answer
	// inference and adaptive redundancy — HITs post at MinAssignments
	// and extend one assignment at a time while any item's posterior
	// stays below the stopping target. The default crowd is exactly
	// perfect, so both phases reproduce the oracle and the adaptive
	// phase provably stops every HIT at the floor: strictly fewer
	// assignments and strictly lower spend at an identical result
	// fingerprint, rerun-identical.
	WorkloadInference Workload = "inference"
	// WorkloadWarmstart is the filter cascade with the Task Cache armed
	// and backed by the durable knowledge store (Config.StorePath
	// required): the first run over a given store pays for every
	// question, a second run replays the store and answers from it.
	// Compare two runs at the same Tuples/Seed/StorePath: fewer HITs,
	// identical result fingerprint.
	WorkloadWarmstart Workload = "warmstart"
)

// Config parameterizes one load run. Zero values take the documented
// defaults.
type Config struct {
	// Workload selects the scenario (default WorkloadFilter).
	Workload Workload
	// Tuples is the input cardinality (default 1000). For the join
	// workload it is the number of spotted sightings; celebrities are
	// Tuples/10 (min 5).
	Tuples int
	// Workers is the simulated crowd size (default 500).
	Workers int
	// Shards overrides the worker pool's claim shards (default: one
	// shard per 64 workers, see crowd.Config.Shards).
	Shards int
	// Batch is tuples per HIT for filter/rating HITs (default 5).
	Batch int
	// Assignments is the redundancy per HIT (default 3).
	Assignments int
	// PriceCents is the reward per HIT (default 1).
	PriceCents int64
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Skill / SkillStd / Spam / Abandon / BatchPenalty override the
	// crowd's accuracy profile (zero = the crowd package's defaults:
	// 0.85 ± 0.08 skill, 5% spammers, 2% abandonment, 0.015 per-question
	// batch decay). The joinprefilter-vs-join comparison wants a
	// near-perfect crowd (e.g. Skill 0.999, Spam 1e-12, BatchPenalty
	// 1e-9) so paid-pair counts, not answer noise, dominate.
	Skill, SkillStd, Spam, Abandon, BatchPenalty float64
	// StorePath opens the durable knowledge store at this directory:
	// replayed state warms the cache and estimators before the run, and
	// everything learned streams back. Required by WorkloadWarmstart,
	// optional for the others.
	StorePath string
	// TopK (sort workload) is the LIMIT pushed into the top-k
	// comparison phase (default 3, clamped below the comparison group
	// size — the tournament cannot shrink groups otherwise — and to
	// the input size).
	TopK int
	// CancelAfter (streaming workload) cancels the query's context once
	// that many rows have streamed out; 0 runs to completion.
	CancelAfter int
	// StreamWindow (streaming workload) bounds concurrently in-flight
	// filter cascades (exec.Config.FilterWindow; default 8), throttling
	// HIT posting so cancellation has unposted work to save.
	StreamWindow int
	// Queries (multitenant workload) is how many concurrent streaming
	// queries share the engine (default 150); each gets Tuples/Queries
	// input rows (min 1).
	Queries int
	// NoShare (multitenant workload) turns cross-query HIT sharing off,
	// for the baseline side of the comparison.
	NoShare bool
	// MaxInflight (multitenant workload) is the admission gate on
	// concurrently posted HITs (core.Config.MaxInflightHITs; default 32).
	MaxInflight int
	// NoPlanCache disables the engine's normalized-SQL plan cache for
	// the run, for A/B-verifying that cached and uncached plans produce
	// identical result fingerprints.
	NoPlanCache bool
	// MinAssignments (inference workload) is the adaptive posting floor
	// (default 2); the EM phase extends HITs toward Assignments while
	// any item's posterior stays unsure.
	MinAssignments int
	// TracePath, when set, arms the observability layer for the run and
	// writes every span tree (batches, HITs, assignments, extensions)
	// to this path as JSONL when the run completes. Tracing never
	// schedules clock events or consumes randomness, so all virtual-time
	// metrics and result fingerprints are identical with it on or off —
	// the -verify rerun drops it to prove exactly that.
	TracePath string
}

// planCacheSize translates the A/B switch into core's config knob.
func (c Config) planCacheSize() int {
	if c.NoPlanCache {
		return -1
	}
	return 0
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = WorkloadFilter
	}
	if c.Workload == WorkloadSort && c.Assignments <= 0 {
		// The sort workload asserts hybrid reproduces compare's exact
		// order across independently-noised phases; 5-way redundancy
		// (instead of the generic 3) makes a flipped pair majority
		// cubically unlikely at the crowd's 0.99 skill ceiling while
		// leaving HIT counts — what the phases compare — untouched.
		c.Assignments = 5
	}
	if c.Workload == WorkloadMultiTenant && c.Assignments <= 0 {
		// Single-assignment HITs: with the workload's exactly-perfect
		// default crowd, redundancy buys nothing and would only scale
		// the HIT volume the sharing comparison counts.
		c.Assignments = 1
	}
	if c.Tuples <= 0 {
		c.Tuples = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 500
	}
	if c.Batch <= 0 {
		c.Batch = 5
	}
	if c.Assignments <= 0 {
		c.Assignments = 3
	}
	if c.PriceCents <= 0 {
		c.PriceCents = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = (c.Workers + 63) / 64
	}
	if c.StreamWindow <= 0 {
		c.StreamWindow = 8
	}
	if c.Workload == WorkloadMultiTenant {
		if c.Queries <= 0 {
			c.Queries = 150
		}
		if c.MaxInflight <= 0 {
			c.MaxInflight = 32
		}
		// The -verify harness asserts rerun-identical per-query result
		// fingerprints however the scheduler interleaves hundreds of
		// concurrent queries, so the default crowd is exactly perfect:
		// Skill 1.0 makes every answer equal ground truth regardless of
		// which worker drew it in what order. Explicit knobs still win.
		if c.Skill == 0 {
			c.Skill = 1.0
		}
		if c.SkillStd == 0 {
			c.SkillStd = 1e-12
		}
		if c.Spam == 0 {
			c.Spam = 1e-12
		}
		if c.Abandon == 0 {
			c.Abandon = 1e-12
		}
		if c.BatchPenalty == 0 {
			c.BatchPenalty = 1e-12
		}
	}
	if c.Workload == WorkloadHybridCrowd {
		// Routing needs a price gap to exploit: the LLM crowd quotes
		// half the human reward, so the default reward is 2¢ rather
		// than the generic 1¢.
		if c.PriceCents <= 1 {
			c.PriceCents = 2
		}
		// Both phases must reproduce the oracle exactly for their
		// fingerprints to be comparable, so the default crowd is
		// exactly perfect, like the multitenant workload's.
		if c.Skill == 0 {
			c.Skill = 1.0
		}
		if c.SkillStd == 0 {
			c.SkillStd = 1e-12
		}
		if c.Spam == 0 {
			c.Spam = 1e-12
		}
		if c.Abandon == 0 {
			c.Abandon = 1e-12
		}
		if c.BatchPenalty == 0 {
			c.BatchPenalty = 1e-12
		}
	}
	if c.Workload == WorkloadInference {
		if c.MinAssignments <= 0 {
			c.MinAssignments = 2
		}
		// Both phases must reproduce the oracle exactly for their
		// fingerprints to be comparable, and the adaptive phase's
		// assignment count should measure the stopping rule rather than
		// answer noise, so the default crowd is exactly perfect — two
		// agreeing strangers clear the posterior target and every HIT
		// stops at the floor. Explicit knobs still win.
		if c.Skill == 0 {
			c.Skill = 1.0
		}
		if c.SkillStd == 0 {
			c.SkillStd = 1e-12
		}
		if c.Spam == 0 {
			c.Spam = 1e-12
		}
		if c.Abandon == 0 {
			c.Abandon = 1e-12
		}
		if c.BatchPenalty == 0 {
			c.BatchPenalty = 1e-12
		}
	}
	if c.Workload == WorkloadSort {
		// Top-k must sit below the comparison group size or the
		// selection tournament cannot shrink its groups and top-k
		// degenerates to full ordering — which would also fail the
		// workload's topk<compare acceptance check, so oversized
		// requests are clamped rather than honored.
		sortGroupSize := rank.GroupSizeFor(sortTasks())
		if c.TopK <= 0 {
			c.TopK = 3
		}
		if c.TopK >= sortGroupSize {
			c.TopK = sortGroupSize - 1
		}
		if c.TopK > c.Tuples {
			c.TopK = c.Tuples
		}
		// The sort workload compares strategy economics and asserts
		// hybrid reproduces compare's exact order, so its default crowd
		// is near-perfect (explicit knobs still win) — the same posture
		// the joinprefilter-vs-join comparison documents.
		if c.Skill == 0 {
			c.Skill = 0.9999
		}
		if c.SkillStd == 0 {
			// The crowd draws worker skill from N(Skill, SkillStd); the
			// default 0.08 spread would reintroduce exactly the noise
			// this workload pins down.
			c.SkillStd = 1e-9
		}
		if c.Spam == 0 {
			c.Spam = 1e-12
		}
		if c.Abandon == 0 {
			c.Abandon = 1e-12
		}
		if c.BatchPenalty == 0 {
			c.BatchPenalty = 1e-9
		}
	}
	return c
}

// Report is one load run's results. All virtual-time fields are
// deterministic for a given Config; Wall and HITsPerSec measure the
// real hardware.
type Report struct {
	Config Config

	// Marketplace totals.
	HITs        int64
	Assignments int64
	Questions   int64
	Spent       budget.Cents

	// Outcomes resolved (one per logical task application); Errors are
	// outcomes that carried an error; Passed is workload-specific
	// (filter survivors / join matches / rated items).
	Outcomes int64
	Errors   int64
	Passed   int64

	// Wall is real elapsed time for the pump; HITsPerSec is completed
	// HITs per real second (simulator throughput).
	Wall       time.Duration
	HITsPerSec float64

	// Makespan is the virtual time at which the last outcome resolved;
	// P50/P99 are virtual post-to-done HIT latencies.
	Makespan mturk.VirtualTime
	P50, P99 time.Duration

	// JoinPairs counts pairs submitted to the join interface (the paid
	// cross product); PassedKeysFNV fingerprints the sorted passing
	// pair keys (or, for the warmstart workload, the keys passing the
	// whole cascade), so two runs over the same dataset can be compared
	// for identical final result rows. Both are 0 for workloads that
	// define no fingerprint.
	JoinPairs     int64
	PassedKeysFNV uint64

	// Store metrics, populated when Config.StorePath is set: CacheServed
	// counts task applications answered by the (replayed or live) cache;
	// ReplayedAnswers / ReplayedObservations are the warm-start summary;
	// Replay is the wall time Open + restore took (nondeterministic,
	// like Wall).
	CacheServed          int64
	ReplayedAnswers      int64
	ReplayedObservations int64
	Replay               time.Duration

	// DollarsPerQuery is total spend for the whole run in dollars.
	DollarsPerQuery float64

	// Sort-workload metrics: per-strategy HIT counts and order
	// fingerprints (each phase runs isolated on identical seeds).
	// SortOrderFNV fingerprints the compare phase's full order,
	// SortHybridFNV the hybrid's (equal when refinement converges to
	// the same order), SortTopKFNV the top-k phase's first K keys and
	// SortTopKBaseFNV the compare phase's first K (equal when the
	// tournament found the true top window).
	SortRateHITs    int64
	SortCompareHITs int64
	SortTopKHITs    int64
	SortHybridHITs  int64
	SortOrderFNV    uint64
	SortHybridFNV   uint64
	SortTopKFNV     uint64
	SortTopKBaseFNV uint64

	// Streaming-workload metrics: FirstRow is the virtual time the first
	// result tuple streamed out of the cursor (strictly before Makespan
	// on a streaming run); Delivered counts the rows of the canceled
	// prefix (all rows when CancelAfter is 0); HITsAfterCancel counts
	// HITs posted after cancellation took effect — 0 in practice, with
	// at most an already-in-flight post racing the cancel (expired and
	// refunded either way).
	FirstRow        mturk.VirtualTime
	Delivered       int64
	HITsAfterCancel int64

	// Multitenant-workload metrics: PerQueryFNV fingerprints each
	// query's passed keys (index = query number; rerun-identical);
	// FairSpreadCents is max−min per-query sunk cost; the sharing
	// counters mirror taskmgr.SharingStats for this run.
	PerQueryFNV      []uint64
	FairSpreadCents  budget.Cents
	SharedHITs       int64
	CoBatchedItems   int64
	HITsSaved        int64
	SharedSavedCents budget.Cents

	// Inference-workload metrics: the headline HITs/Assignments/Spent/
	// fingerprint fields describe the adaptive (EM) phase; InferBase*
	// carry the fixed-redundancy majority baseline, and the remaining
	// fields mirror taskmgr.InferenceStats for the adaptive phase.
	InferBaseHITs        int64
	InferBaseAssignments int64
	InferBaseSpent       budget.Cents
	InferBaseFNV         uint64
	InferAdaptiveHITs    int64
	InferExtensions      int64
	InferExtendFailures  int64
	InferSavedCents      budget.Cents

	// Hybridcrowd-workload metrics: the headline HITs/Spent/fingerprint
	// fields describe the routed phase; HybridSim* carry the sim-only
	// baseline, BackendSimHITs/BackendLLMHITs split the routed phase's
	// HITs per backend, and RoutedSavedCents is the router's booked
	// saving versus the task policy price.
	HybridSimHITs    int64
	HybridSimSpent   budget.Cents
	HybridSimFNV     uint64
	BackendSimHITs   int64
	BackendLLMHITs   int64
	RoutedSavedCents budget.Cents
}

// String renders the report the way qurk-load prints it.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s tuples=%d workers=%d batch=%d assignments=%d seed=%d\n",
		r.Config.Workload, r.Config.Tuples, r.Config.Workers, r.Config.Batch, r.Config.Assignments, r.Config.Seed)
	fmt.Fprintf(&b, "  HITs          %d (%d assignments, %d questions)\n", r.HITs, r.Assignments, r.Questions)
	fmt.Fprintf(&b, "  outcomes      %d (%d passed, %d errors)\n", r.Outcomes, r.Passed, r.Errors)
	fmt.Fprintf(&b, "  throughput    %.0f HITs/sec over %v wall\n", r.HITsPerSec, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "  HIT latency   p50=%.1f vmin  p99=%.1f vmin  makespan=%.1f vmin\n",
		r.P50.Minutes(), r.P99.Minutes(), r.Makespan.Minutes())
	fmt.Fprintf(&b, "  cost          $%.2f/query\n", r.DollarsPerQuery)
	if r.JoinPairs > 0 {
		fmt.Fprintf(&b, "  join pairs    %d paid (result fingerprint %016x)\n", r.JoinPairs, r.PassedKeysFNV)
	}
	if r.Config.StorePath != "" {
		fmt.Fprintf(&b, "  warm start    %d answers, %d observations replayed in %v; %d questions served from store\n",
			r.ReplayedAnswers, r.ReplayedObservations, r.Replay.Round(time.Millisecond), r.CacheServed)
	}
	if r.Config.Workload == WorkloadSort {
		fmt.Fprintf(&b, "  sort          rate=%d HITs  compare=%d  topk(%d)=%d  hybrid=%d\n",
			r.SortRateHITs, r.SortCompareHITs, r.Config.TopK, r.SortTopKHITs, r.SortHybridHITs)
		fmt.Fprintf(&b, "  sort orders   compare=%016x hybrid=%016x topk=%016x (want %016x)\n",
			r.SortOrderFNV, r.SortHybridFNV, r.SortTopKFNV, r.SortTopKBaseFNV)
	}
	if r.Config.Workload == WorkloadMultiTenant {
		sharing := "on"
		if r.Config.NoShare {
			sharing = "off"
		}
		fmt.Fprintf(&b, "  multitenant   %d queries (sharing %s, gate %d): %d shared HITs co-batched %d items, %d HITs saved (~%v)\n",
			r.Config.Queries, sharing, r.Config.MaxInflight, r.SharedHITs, r.CoBatchedItems, r.HITsSaved, r.SharedSavedCents)
		fmt.Fprintf(&b, "  fairness      per-query spend spread %v; combined fingerprint %016x\n",
			r.FairSpreadCents, r.PassedKeysFNV)
	}
	if r.Config.Workload == WorkloadHybridCrowd {
		fmt.Fprintf(&b, "  hybridcrowd   sim-only spent %v over %d HITs; routed spent %v over %d (%d sim / %d llm, ~%v saved by routing)\n",
			r.HybridSimSpent, r.HybridSimHITs, r.Spent, r.HITs, r.BackendSimHITs, r.BackendLLMHITs, r.RoutedSavedCents)
		fmt.Fprintf(&b, "  fingerprints  sim=%016x routed=%016x\n", r.HybridSimFNV, r.PassedKeysFNV)
	}
	if r.Config.Workload == WorkloadInference {
		avg := 0.0
		if r.InferAdaptiveHITs > 0 {
			avg = float64(r.Assignments) / float64(r.InferAdaptiveHITs)
		}
		fmt.Fprintf(&b, "  inference     baseline %d assignments over %d HITs (%v); adaptive %d over %d (avg %.1f/HIT, floor %d, %d extensions, ~%v saved)\n",
			r.InferBaseAssignments, r.InferBaseHITs, r.InferBaseSpent,
			r.Assignments, r.HITs, avg, r.Config.MinAssignments, r.InferExtensions, r.InferSavedCents)
		fmt.Fprintf(&b, "  fingerprints  baseline=%016x adaptive=%016x\n", r.InferBaseFNV, r.PassedKeysFNV)
	}
	if r.Config.Workload == WorkloadStreaming {
		fmt.Fprintf(&b, "  streaming     first row at %.1f vmin (makespan %.1f); %d rows delivered (fingerprint %016x)\n",
			r.FirstRow.Minutes(), r.Makespan.Minutes(), r.Delivered, r.PassedKeysFNV)
		if r.Config.CancelAfter > 0 {
			fmt.Fprintf(&b, "  cancellation  after %d rows: %d HITs posted post-cancel, sunk cost %v\n",
				r.Config.CancelAfter, r.HITsAfterCancel, r.Spent)
		}
	}
	return b.String()
}

func mustTask(src string) *qlang.TaskDef {
	def, err := qlang.ParseTaskDef(src)
	if err != nil {
		panic(err)
	}
	return def
}

// Run executes one load scenario and reports its metrics.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload == WorkloadStreaming {
		// The streaming scenario exercises the whole engine (context
		// API, Rows cursor, cancellation) rather than the bare
		// marketplace + task-manager stack.
		return runStreaming(cfg)
	}
	if cfg.Workload == WorkloadSort {
		// The sort scenario runs four isolated strategy phases; it has
		// its own driver (sort.go).
		return runSort(cfg)
	}
	if cfg.Workload == WorkloadMultiTenant {
		// The multitenant scenario runs concurrent queries through one
		// engine; it has its own driver (multitenant.go).
		return runMultiTenant(cfg)
	}
	if cfg.Workload == WorkloadHybridCrowd {
		// The hybridcrowd scenario runs two isolated phases (sim-only
		// vs routed); it has its own driver (hybridcrowd.go).
		return runHybridCrowd(cfg)
	}
	if cfg.Workload == WorkloadInference {
		// The inference scenario runs two isolated phases (majority
		// baseline vs adaptive EM); it has its own driver (inference.go).
		return runInference(cfg)
	}
	rep := Report{Config: cfg}

	clock := mturk.NewClock()
	defer clock.Close()

	var sc scenario
	var oracle crowd.Oracle
	switch cfg.Workload {
	case WorkloadFilter:
		ds := workload.Photos(cfg.Tuples, 0.5, 0.6, cfg.Seed)
		oracle = ds.Oracle
		sc = filterCascade(ds)
	case WorkloadJoin:
		ds := celebrityDataset(cfg)
		oracle = ds.Oracle
		sc = joinGrids(ds)
	case WorkloadJoinPreFilter:
		ds := celebrityDataset(cfg)
		oracle = ds.Oracle
		sc = joinPreFilter(ds, cfg)
	case WorkloadOrderBy:
		ds := workload.RankItems(cfg.Tuples, 7, "rateItem", cfg.Seed)
		oracle = ds.Oracle
		sc = orderByRatings(ds)
	case WorkloadWarmstart:
		if cfg.StorePath == "" {
			return rep, fmt.Errorf("load: workload %q needs Config.StorePath", cfg.Workload)
		}
		ds := workload.Photos(cfg.Tuples, 0.5, 0.6, cfg.Seed)
		oracle = ds.Oracle
		sc = warmstartCascade(ds)
	default:
		return rep, fmt.Errorf("load: unknown workload %q", cfg.Workload)
	}
	drive := sc.drive

	pool := crowd.NewPool(crowd.Config{
		Workers:      cfg.Workers,
		Shards:       cfg.Shards,
		Seed:         cfg.Seed,
		MeanSkill:    cfg.Skill,
		SkillStd:     cfg.SkillStd,
		SpamFraction: cfg.Spam,
		AbandonRate:  cfg.Abandon,
		BatchPenalty: cfg.BatchPenalty,
	}, oracle)
	market := mturk.NewMarketplace(clock, pool)
	// Collect per-HIT latencies streamingly and let the marketplace drop
	// completed-HIT state, so runs with tens of thousands of tuples stay
	// flat in memory. The observer runs on the pump goroutine only.
	var latencies []time.Duration
	market.SetAutoDispose(true, func(hs mturk.HITStatus) {
		latencies = append(latencies, (hs.DoneAt - hs.PostedAt).Duration())
	})
	mgr := taskmgr.New(market, nil, nil, nil)
	sink := newTraceSink(cfg)
	tr := sink.tracer(clock.Now)
	if tr != nil {
		mgr.SetObs(tr)
	}
	if cfg.StorePath != "" {
		replayStart := time.Now()
		st, err := store.Open(cfg.StorePath)
		if err != nil {
			return rep, fmt.Errorf("load: %v", err)
		}
		defer st.Close()
		var warm taskmgr.RestoreSummary
		st.View(func(s *store.State) { warm = mgr.Restore(s) })
		mgr.SetJournal(st)
		rep.Replay = time.Since(replayStart)
		rep.ReplayedAnswers = warm.CacheAnswers
		rep.ReplayedObservations = warm.Observations
	}
	mgr.SetBasePolicy(taskmgr.Policy{
		Assignments: cfg.Assignments,
		BatchSize:   cfg.Batch,
		PriceCents:  cfg.PriceCents,
		Linger:      time.Minute,
		// Without a cache-driven scenario the cache and model never hit
		// on this synthetic data; skip their bookkeeping so the harness
		// measures the posting path. The warmstart scenario arms the
		// cache — that is the point of it.
		UseCache: sc.useCache,
		UseModel: false,
	})

	var ctr counters
	start := time.Now()
	drive(mgr, &ctr)
	mgr.FlushAll()
	// Pump everything on this goroutine. Cascade submissions happen in
	// Done callbacks, which run on this goroutine too; their partial
	// batches are flushed by linger timers (scheduled clock events), so
	// an empty queue with outstanding work means a genuine stall.
	for ctr.outstanding.Load() > 0 {
		if !clock.Step() {
			mgr.FlushAll()
			if !clock.Step() {
				return rep, fmt.Errorf("load: stalled with %d outcomes outstanding", ctr.outstanding.Load())
			}
		}
	}
	rep.Wall = time.Since(start)
	rep.Makespan = clock.Now()

	st := market.Stats()
	rep.HITs = int64(st.HITsPosted)
	rep.Assignments = int64(st.AssignmentsCompleted)
	rep.Questions = int64(st.QuestionsAnswered)
	rep.Spent = st.SpentCents
	rep.Outcomes = ctr.outcomes.Load()
	rep.Errors = ctr.errors.Load()
	rep.Passed = ctr.passed.Load()
	rep.DollarsPerQuery = float64(rep.Spent) / 100

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		rep.P50 = latencies[n/2]
		rep.P99 = latencies[min(n-1, n*99/100)]
		if secs := rep.Wall.Seconds(); secs > 0 {
			rep.HITsPerSec = float64(n) / secs
		}
	}
	rep.JoinPairs = ctr.pairs.Load()
	rep.CacheServed = mgr.Cache().Stats().Hits
	if sc.finish != nil {
		sc.finish(&rep)
	}
	sink.collect(tr)
	if err := sink.flush(); err != nil {
		return rep, err
	}
	return rep, nil
}

// celebrityDataset builds the shared dataset of the two join workloads:
// identical Tuples+Seed give identical tables and oracle, so their
// reports are directly comparable.
func celebrityDataset(cfg Config) workload.Dataset {
	nCelebs := cfg.Tuples / 10
	if nCelebs < 5 {
		nCelebs = 5
	}
	return workload.Celebrities(nCelebs, cfg.Tuples, 0.3, cfg.Seed)
}

// scenario bundles a workload's submission driver with an optional
// post-run report hook (e.g. the join workloads' result fingerprint)
// and whether the Task Cache is armed.
type scenario struct {
	drive    func(*taskmgr.Manager, *counters)
	finish   func(*Report)
	useCache bool
}

// fingerprint hashes the sorted passing pair keys: identical result
// rows give identical fingerprints, whatever order they resolved in.
func fingerprint(passed []string) uint64 {
	sort.Strings(passed)
	h := fnv.New64a()
	for _, key := range passed {
		_, _ = h.Write([]byte(key))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// counters tracks outcome resolution across the run. outstanding gates
// the pump; the rest feed the report.
type counters struct {
	outstanding atomic.Int64
	outcomes    atomic.Int64
	errors      atomic.Int64
	passed      atomic.Int64
	pairs       atomic.Int64 // join pairs submitted to the grid interface
}

// resolve records one finished outcome (pass marks workload-specific
// success).
func (c *counters) resolve(out taskmgr.Outcome, pass bool) {
	c.outcomes.Add(1)
	if out.Err != nil {
		c.errors.Add(1)
	} else if pass {
		c.passed.Add(1)
	}
	c.outstanding.Add(-1)
}

// filterCascade submits isCat over every photo and isOutdoor over the
// survivors, mirroring a two-predicate WHERE clause.
func filterCascade(ds workload.Dataset) scenario {
	return cascadeScenario(ds, false)
}

// warmstartCascade is the cascade with the Task Cache armed and the
// result set fingerprinted: against a fresh store every question is
// paid for; against a store warmed by a previous identical run the
// cascade answers from replayed state, pays fewer (typically zero)
// HITs, and must reproduce the same fingerprint — cached answers are
// the first run's answers, so the majority votes cannot drift.
func warmstartCascade(ds workload.Dataset) scenario {
	sc := cascadeScenario(ds, true)
	sc.useCache = true
	return sc
}

// cascadeScenario drives the two-stage filter cascade; withFingerprint
// additionally records the keys passing both stages into the report's
// PassedKeysFNV.
func cascadeScenario(ds workload.Dataset, withFingerprint bool) scenario {
	isCat := mustTask(`
TASK isCat(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this photo of a cat? %s", img
  Response: YesNo
`)
	isOutdoor := mustTask(`
TASK isOutdoor(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", img
  Response: YesNo
`)
	var passed []string
	sc := scenario{drive: func(mgr *taskmgr.Manager, ctr *counters) {
		for _, row := range ds.Tables[0].Snapshot() {
			img := row.Get("img")
			ctr.outstanding.Add(1)
			mgr.Submit(taskmgr.Request{Def: isCat, Args: []relation.Value{img}, Done: func(out taskmgr.Outcome) {
				if out.Err == nil && out.Value.Truthy() {
					ctr.outstanding.Add(1)
					mgr.Submit(taskmgr.Request{Def: isOutdoor, Args: []relation.Value{img}, Done: func(out2 taskmgr.Outcome) {
						pass := out2.Err == nil && out2.Value.Truthy()
						if pass && withFingerprint {
							passed = append(passed, img.Str())
						}
						ctr.resolve(out2, pass)
					}})
				}
				ctr.resolve(out, false)
			}})
		}
	}}
	if withFingerprint {
		sc.finish = func(rep *Report) { rep.PassedKeysFNV = fingerprint(passed) }
	}
	return sc
}

// joinTasks parses the join workloads' task pair: the samePerson grid
// predicate (declaring its feature filter) and the isCeleb filter.
func joinTasks() (samePerson, isCeleb *qlang.TaskDef) {
	samePerson = mustTask(`
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures showing the same person."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
  PreFilter: isCeleb
`)
	isCeleb = mustTask(`
TASK isCeleb(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a public figure? %s", img
  Response: YesNo
`)
	return samePerson, isCeleb
}

// joinItems extracts one table's grid column.
func joinItems(tab *relation.Table) []taskmgr.JoinItem {
	rows := tab.Snapshot()
	out := make([]taskmgr.JoinItem, 0, len(rows))
	for _, row := range rows {
		out = append(out, taskmgr.JoinItem{
			Key:  row.Get("image").Str(),
			Args: []relation.Value{row.Get("image")},
		})
	}
	return out
}

// gridJoin walks left×right in 5×5 blocks, accounting every submitted
// pair and recording the keys of passing pairs.
func gridJoin(mgr *taskmgr.Manager, ctr *counters, def *qlang.TaskDef,
	left, right []taskmgr.JoinItem, passed *[]string) {
	const grid = 5
	for li := 0; li < len(left); li += grid {
		lb := left[li:min(li+grid, len(left))]
		for ri := 0; ri < len(right); ri += grid {
			rb := right[ri:min(ri+grid, len(right))]
			ctr.outstanding.Add(int64(len(lb) * len(rb)))
			ctr.pairs.Add(int64(len(lb) * len(rb)))
			mgr.JoinBlock(def, lb, rb, func(l, r int, out taskmgr.Outcome) {
				pass := out.Err == nil && out.Value.Truthy()
				if pass {
					*passed = append(*passed, hit.PairKey(lb[l].Key, rb[r].Key))
				}
				ctr.resolve(out, pass)
			})
		}
	}
}

// joinGrids partitions celebrities × sightings into 5×5 two-column grid
// HITs, the interface the paper found cheapest per pair.
func joinGrids(ds workload.Dataset) scenario {
	samePerson, _ := joinTasks()
	var passed []string
	return scenario{
		drive: func(mgr *taskmgr.Manager, ctr *counters) {
			gridJoin(mgr, ctr, samePerson, joinItems(ds.Tables[0]), joinItems(ds.Tables[1]), &passed)
		},
		finish: func(rep *Report) { rep.PassedKeysFNV = fingerprint(passed) },
	}
}

// joinPreFilter is the cost-based pre-filtered join, end to end in load
// form: probe the feature filter's selectivity on a prefix of each
// side (observations tagged per join side), let
// optimizer.ChoosePreFilter price the four plans — no filter, left
// only, right only, both — with the live per-side estimates, then
// filter only the chosen side(s) (single-assignment POSSIBLY
// semantics) and join the survivors against the untouched side. All
// submissions happen on the pump goroutine (inside Done callbacks), so
// runs stay rerun-identical.
func joinPreFilter(ds workload.Dataset, cfg Config) scenario {
	samePerson, isCeleb := joinTasks()
	const probeN = 25
	var passed []string
	drive := func(mgr *taskmgr.Manager, ctr *counters) {
		left := joinItems(ds.Tables[0])
		right := joinItems(ds.Tables[1])
		keepL := make([]bool, len(left))
		keepR := make([]bool, len(right))

		// filterStage submits isCeleb for items[from:to) with a single
		// assignment, marking survivors; when every outcome of this
		// stage is in, next runs (on the pump goroutine).
		filterStage := func(items []taskmgr.JoinItem, keep []bool, side string, from, to int, next func()) {
			pending := to - from
			if pending == 0 {
				next()
				return
			}
			for i := from; i < to; i++ {
				i := i
				ctr.outstanding.Add(1)
				mgr.Submit(taskmgr.Request{
					Def:         isCeleb,
					Args:        items[i].Args,
					Assignments: 1,
					StatSide:    side,
					Done: func(out taskmgr.Outcome) {
						keep[i] = out.Err != nil || out.Value.Truthy() // fail open
						ctr.resolve(out, false)
						pending--
						if pending == 0 {
							next()
						}
					},
				})
			}
		}

		survivors := func(items []taskmgr.JoinItem, keep []bool) []taskmgr.JoinItem {
			out := make([]taskmgr.JoinItem, 0, len(items))
			for i, it := range items {
				if keep[i] {
					out = append(out, it)
				}
			}
			return out
		}

		pl, pr := min(probeN, len(left)), min(probeN, len(right))
		filterStage(left, keepL, taskmgr.SideLeft, 0, pl, func() {
			filterStage(right, keepR, taskmgr.SideRight, 0, pr, func() {
				// Probe done: price the four plans with the live
				// per-side selectivity estimates.
				selL, _ := mgr.SideSelectivity(isCeleb.Name, taskmgr.SideLeft)
				selR, _ := mgr.SideSelectivity(isCeleb.Name, taskmgr.SideRight)
				fpol := taskmgr.Policy{Assignments: 1, BatchSize: cfg.Batch, PriceCents: cfg.PriceCents}
				jpol := taskmgr.Policy{Assignments: cfg.Assignments, PriceCents: cfg.PriceCents}
				choice := optimizer.ChoosePreFilter(len(left), len(right), selL, selR, 5, 5, fpol, jpol)
				if !choice.Left && !choice.Right {
					// Not worth it: the whole cross product joins, probe
					// answers discarded (their cost is sunk).
					gridJoin(mgr, ctr, samePerson, left, right, &passed)
					return
				}
				// Complete only the chosen stages; an unchosen side joins
				// whole — including its probe rejects, which the join
				// predicate re-checks anyway.
				joinL, joinR := left, right
				finish := func() {
					if choice.Left {
						joinL = survivors(left, keepL)
					}
					if choice.Right {
						joinR = survivors(right, keepR)
					}
					gridJoin(mgr, ctr, samePerson, joinL, joinR, &passed)
				}
				stageR := func() {
					if !choice.Right {
						finish()
						return
					}
					filterStage(right, keepR, taskmgr.SideRight, pr, len(right), finish)
				}
				if choice.Left {
					filterStage(left, keepL, taskmgr.SideLeft, pl, len(left), stageR)
				} else {
					stageR()
				}
			})
		})
	}
	return scenario{
		drive:  drive,
		finish: func(rep *Report) { rep.PassedKeysFNV = fingerprint(passed) },
	}
}

// orderByRatings collects a 1–7 rating per item, then sorts by mean
// rating once every outcome is in (the sort itself is engine-free).
func orderByRatings(ds workload.Dataset) scenario {
	rateItem := mustTask(`
TASK rateItem(Image img)
RETURNS Int:
  TaskType: Rating
  Text: "Rate this item from 1 to 7. %s", img
  Response: Rating(1, 7)
`)
	return scenario{drive: func(mgr *taskmgr.Manager, ctr *counters) {
		for _, row := range ds.Tables[0].Snapshot() {
			img := row.Get("img")
			ctr.outstanding.Add(1)
			mgr.Submit(taskmgr.Request{Def: rateItem, Args: []relation.Value{img}, Done: func(out taskmgr.Outcome) {
				ctr.resolve(out, out.Err == nil)
			}})
		}
	}}
}
