package core

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dashboard"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// planCache memoizes compiled programs keyed by their normalized SQL
// fingerprint (qlang.NormalizeQuery — literals stripped), so a repeated
// query shape skips parsing, planning, pushdown, the pre-filter rewrite
// and compilation: a hit runs the stored program with the fresh
// statement's literal values.
//
// Correctness invariants:
//
//   - Literals are re-bound on every hit. Equal fingerprints mean equal
//     token streams apart from literal values, so the fresh text parses
//     to the template's shape, and the one lexing pass that made the
//     key also yields its values in the order of the template's
//     statement literals, which are the program's first parameters.
//     Which human calls of an operator share a site depends on literal
//     values; a hit whose call arguments would share differently
//     (exec.Program.Fits) plans afresh.
//
//   - The key embeds a config epoch, bumped whenever the engine's
//     environment changes in ways planning observes — new task
//     definitions, new tables. Old entries die wholesale.
//
//   - Adaptive pre-filter decisions are never trusted across queries.
//     A hit re-runs plan.ApplyPreFilters over the template with the
//     live cost decider (fed by the Statistics Manager); if the decision
//     vector differs from the one recorded when the program was
//     compiled, the Statistics Manager's evidence has crossed an
//     optimizer threshold, so the entry is recompiled from its template
//     and counted as invalidated, not hit.
//
//   - Entries are immutable: plans are never mutated once built, and a
//     program is shared by every query that runs it. A recompiled entry
//     replaces the old one; queries already running keep theirs.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key → element whose Value is *planEntry
	lru     list.List                // front = most recently used
}

// planCacheEntries bounds the plan cache (LRU entries).
const planCacheEntries = 256

type planEntry struct {
	key string
	// template is the plan before ApplyPreFilters; lits are its
	// statement's literals (qlang.CollectStmtLiterals order), the
	// program's first parameters.
	template plan.Node
	lits     []*qlang.Literal
	// prog is the template compiled with the pre-filters decisions
	// chose, recorded in ApplyPreFilters walk order.
	prog      *exec.Program
	decisions []plan.PreFilterDecision
	// planNs is the measured planning cost this entry saves per hit.
	planNs int64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*list.Element)}
}

// planCacheKey builds the cache key for a query under the given epoch
// and adaptive-join setting, and returns the values of the query's
// literals from the same lexing pass. It fails when the text does not
// fingerprint; ParseQuery then reports why.
func planCacheKey(sql string, epoch int64, adaptive bool) ([]byte, []relation.Value, error) {
	key := make([]byte, 0, 24+len(sql))
	key = strconv.AppendInt(key, epoch, 10)
	key = append(key, '|')
	key = strconv.AppendBool(key, adaptive)
	key = append(key, '|')
	return qlang.NormalizeQuery(key, sql)
}

// lookup returns the entry for key, refreshing its LRU position.
func (c *planCache) lookup(key []byte) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry)
}

// store inserts or replaces the entry, evicting the least recently used
// entry past capacity.
func (c *planCache) store(e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
	for c.lru.Len() > planCacheEntries {
		oldest := c.lru.Back()
		delete(c.entries, oldest.Value.(*planEntry).key)
		c.lru.Remove(oldest)
	}
}

// PlanCacheStats is the plan cache's counter set (dashboard, tests).
type PlanCacheStats = dashboard.PlanCacheStats

// Plan-cache outcomes, annotated onto plan spans by startQuery.
const (
	planOutcomeHit         = "hit"
	planOutcomeMiss        = "miss"
	planOutcomeInvalidated = "invalidated"
	planOutcomeUncached    = "uncached"
)

// planned is one query through the front end: its cache key and
// literal values when the cache takes part and the text fingerprints,
// the entry whose program it runs on a hit, and otherwise the parsed
// statement.
type planned struct {
	key   []byte
	lits  []relation.Value
	entry *planEntry
	stmt  *qlang.SelectStmt
}

// prepare runs sql through the front end. A hit needs no syntax tree;
// anything else is parsed (stmt, when the caller has it, is used
// instead), so a malformed text fails here with its *ParseError.
func (e *Engine) prepare(sql string, stmt *qlang.SelectStmt, o queryOptions) (planned, error) {
	var p planned
	if !o.noPlanCache {
		key, lits, err := planCacheKey(sql, atomic.LoadInt64(&e.planEpoch), e.adaptiveJoins(o))
		if err == nil {
			p.key, p.lits = key, lits
			if entry := e.plans.lookup(key); entry != nil && entry.prog.Fits(lits) {
				p.entry = entry
				return p, nil
			}
		}
	}
	if stmt == nil {
		var err error
		if stmt, err = qlang.ParseQuery(sql); err != nil {
			return p, err
		}
	}
	p.stmt = stmt
	return p, nil
}

// buildPlan produces the program one query runs and the values of its
// statement literals (nil: as planned). The decider (nil when adaptive
// joins are off) is invoked live on misses and hits alike; on a hit its
// decision vector is compared against the entry's. outcome reports how
// the plan cache participated (planOutcome*).
func (e *Engine) buildPlan(p planned, script *qlang.Script, adaptive bool, decide plan.PreFilterDecider) (prog *exec.Program, vals []relation.Value, outcome string, err error) {
	var recorded []plan.PreFilterDecision
	var recording plan.PreFilterDecider
	if decide != nil {
		recording = func(join, filter *qlang.TaskDef, l, r int) plan.PreFilterDecision {
			d := decide(join, filter, l, r)
			recorded = append(recorded, d)
			return d
		}
	}

	if entry := p.entry; entry != nil {
		if adaptive {
			node := plan.ApplyPreFilters(entry.template, script, recording)
			if !decisionsEqual(recorded, entry.decisions) {
				prog, err := exec.Compile(node, script, entry.lits)
				if err != nil {
					return nil, nil, "", err
				}
				e.count(&e.planInvalidations, obs.MetricPlanCacheInval, 1)
				fresh := *entry
				fresh.prog, fresh.decisions = prog, recorded
				e.plans.store(&fresh)
				return prog, p.lits, planOutcomeInvalidated, nil
			}
		}
		e.count(&e.planHits, obs.MetricPlanCacheHits, 1)
		e.count(&e.planSavedNs, obs.MetricPlanSavedNs, entry.planNs)
		return entry.prog, p.lits, planOutcomeHit, nil
	}

	// Miss (or cache bypassed): full planning pass.
	start := time.Now()
	template, err := plan.Build(p.stmt, script, e.catalog)
	if err != nil {
		return nil, nil, "", err
	}
	template = plan.Pushdown(template)
	node := template
	if adaptive {
		node = plan.ApplyPreFilters(template, script, recording)
	}
	lits := qlang.CollectStmtLiterals(p.stmt)
	prog, err = exec.Compile(node, script, lits)
	if err != nil {
		return nil, nil, "", err
	}
	if p.key == nil {
		return prog, nil, planOutcomeUncached, nil
	}
	e.count(&e.planMisses, obs.MetricPlanCacheMiss, 1)
	e.plans.store(&planEntry{key: string(p.key), template: template, lits: lits, prog: prog,
		decisions: recorded, planNs: time.Since(start).Nanoseconds()})
	return prog, nil, planOutcomeMiss, nil
}

func decisionsEqual(a, b []plan.PreFilterDecision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
