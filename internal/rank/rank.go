// Package rank is the human-powered ranking subsystem: it turns a set
// of items plus an ORDER BY task into a total order using crowd
// comparisons, crowd ratings, or a cost-chosen hybrid of the two — the
// paper's second pillar alongside human joins.
//
// Three strategies:
//
//   - Compare packs items into S-way comparison HITs (the Order
//     response): items are split into consecutive half-groups of ⌊S/2⌋
//     and every pair of half-groups shares one HIT, so every item pair
//     is ranked together at least once in C(⌈n/⌊S/2⌋⌉, 2) = O(n²/S²)
//     HITs (n ≤ S collapses to a single HIT). Votes
//     aggregate into a pairwise win matrix; cycles are broken
//     deterministically by win ratio, then input order.
//   - Rate asks a numeric rating per item (batched under the task
//     policy) and sorts by mean rating, ties broken by input order —
//     the executor's historical ORDER BY behavior, relocated here.
//   - Hybrid rates everything, then runs comparison refinement only on
//     windows of adjacent items whose rating confidence intervals
//     overlap, sized by the remaining per-query budget.
//
// With LIMIT k (Decision.TopK), Compare runs a selection tournament
// that fully orders only the top window instead of paying the all-pairs
// cost, and Hybrid refines only windows that intersect the top k.
//
// The subsystem deliberately has a narrow interface (Run plus the pure
// cost helpers) so future strategies plug in without touching the
// executor.
package rank

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// Strategy names one ordering algorithm.
type Strategy string

// The three strategies.
const (
	StrategyCompare Strategy = "compare"
	StrategyRate    Strategy = "rate"
	StrategyHybrid  Strategy = "hybrid"
)

// DefaultGroupSize is the comparison batch size S when neither the
// task definition (GroupSize:) nor the decision specifies one.
const DefaultGroupSize = 5

// Item is one tuple to order: Key routes results (unique, in input
// order), Args are the values the ranking task is applied to.
type Item struct {
	Key  string
	Args []relation.Value
}

// Decision says how to order one input, typically produced by
// optimizer.ChooseRankStrategy.
type Decision struct {
	Strategy  Strategy
	GroupSize int // S; DefaultGroupSize when 0
	// TopK > 0 means only the first TopK positions of the output must
	// be exact (LIMIT pushdown); the remainder is filled in input order.
	TopK int
	// Desc orders descending; ties still break by input order.
	Desc bool
	// MaxRefineHITs caps hybrid comparison refinement. 0 derives the
	// cap from the scope's remaining budget (unlimited when uncapped).
	MaxRefineHITs int
}

func (d Decision) withDefaults() Decision {
	if d.GroupSize < 2 {
		d.GroupSize = DefaultGroupSize
	}
	if d.Strategy == "" {
		d.Strategy = StrategyRate
	}
	return d
}

// GroupSizeFor resolves the comparison batch size S for a sort over
// rateDef (the ORDER BY task) and cmpDef (its comparison companion):
// the comparison task's GroupSize wins, then the rating task's, then
// DefaultGroupSize.
func GroupSizeFor(rateDef, cmpDef *qlang.TaskDef) int {
	if cmpDef != nil && cmpDef.GroupSize >= 2 {
		return cmpDef.GroupSize
	}
	if rateDef != nil && rateDef.GroupSize >= 2 {
		return rateDef.GroupSize
	}
	return DefaultGroupSize
}

// Manager is the slice of the task manager the subsystem needs;
// *taskmgr.Manager implements it.
type Manager interface {
	Submit(req taskmgr.Request)
	Flush(task string)
	FlushScope(task string, scope *taskmgr.Scope)
	RankBlockIn(scope *taskmgr.Scope, def *qlang.TaskDef, items []taskmgr.RankItem, done func(rankings []taskmgr.Ranking, err error))
	PolicyFor(def *qlang.TaskDef) taskmgr.Policy
}

// Config carries the run's collaborators.
type Config struct {
	Mgr   Manager
	Scope *taskmgr.Scope
	// OnError receives per-item and per-HIT errors (nil discards them);
	// errors degrade the order rather than aborting it.
	OnError func(error)
}

func (c Config) reportError(err error) {
	if c.OnError != nil && err != nil {
		c.OnError(err)
	}
}

// Stats reports what one Run paid and did.
type Stats struct {
	Strategy    Strategy
	Items       int
	CompareHITs int // comparison (Order) HITs completed (failed posts count as Errors)
	RateAsks    int // rating questions submitted
	Windows     int // hybrid: comparison-refined windows
	Refined     int // hybrid: items inside refined windows
	Errors      int
}

// Run orders items with the decided strategy and calls done exactly
// once with the permutation of input indices (first = first output
// row) and the run's stats. Submissions happen on the caller's
// goroutine and inside task-manager Done callbacks; done may therefore
// fire on either. Errors are reported through cfg.OnError and counted;
// the permutation is always a valid total order (errored items keep
// their input order).
func Run(items []Item, rateDef, cmpDef *qlang.TaskDef, d Decision, cfg Config, done func(perm []int, st Stats)) {
	d = d.withDefaults()
	r := &runner{items: items, rateDef: rateDef, cmpDef: cmpDef, d: d, cfg: cfg, done: done}
	r.st.Strategy = d.Strategy
	r.st.Items = len(items)
	if len(items) <= 1 {
		done(identity(len(items)), r.st)
		return
	}
	switch d.Strategy {
	case StrategyCompare:
		if cmpDef == nil {
			r.fail(fmt.Errorf("rank: compare strategy without a comparison task"))
			return
		}
		r.runCompare()
	case StrategyHybrid:
		if cmpDef == nil || rateDef == nil {
			r.fail(fmt.Errorf("rank: hybrid strategy needs both a rating and a comparison task"))
			return
		}
		r.runHybrid()
	default:
		if rateDef == nil {
			r.fail(fmt.Errorf("rank: rate strategy without a rating task"))
			return
		}
		r.runRate(func(scores []float64, errored []bool, _ [][]relation.Value) {
			r.finish(orderByScore(scores, errored, r.d.Desc))
		})
	}
}

// runner is one Run's mutable state. mu guards everything below it:
// task-manager callbacks fire on the clock goroutine while the caller's
// goroutine may still be submitting.
type runner struct {
	items   []Item
	rateDef *qlang.TaskDef
	cmpDef  *qlang.TaskDef
	d       Decision
	cfg     Config
	done    func([]int, Stats)

	mu sync.Mutex
	st Stats
}

func (r *runner) fail(err error) {
	r.cfg.reportError(err)
	r.mu.Lock()
	r.st.Errors++
	st := r.st
	r.mu.Unlock()
	r.done(identity(len(r.items)), st)
}

func (r *runner) finish(perm []int) {
	r.mu.Lock()
	st := r.st
	r.mu.Unlock()
	r.done(perm, st)
}

func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// --- rate ------------------------------------------------------------------

// runRate submits one rating question per item (the task policy batches
// them) and hands the mean scores to then once every outcome is in.
func (r *runner) runRate(then func(scores []float64, errored []bool, answers [][]relation.Value)) {
	n := len(r.items)
	scores := make([]float64, n)
	errored := make([]bool, n)
	answers := make([][]relation.Value, n)
	// The sentinel (+1) keeps then from firing mid-loop when every
	// outcome resolves synchronously from the cache.
	remaining := n + 1
	settle := func() {
		r.mu.Lock()
		remaining--
		fire := remaining == 0
		r.mu.Unlock()
		if fire {
			then(scores, errored, answers)
		}
	}
	for i, it := range r.items {
		i := i
		r.mu.Lock()
		r.st.RateAsks++
		r.mu.Unlock()
		r.cfg.Mgr.Submit(taskmgr.Request{
			Def:   r.rateDef,
			Args:  it.Args,
			Scope: r.cfg.Scope,
			Done: func(out taskmgr.Outcome) {
				if out.Err != nil {
					r.cfg.reportError(out.Err)
					r.mu.Lock()
					r.st.Errors++
					r.mu.Unlock()
					errored[i] = true
				} else {
					scores[i] = out.Value.Float()
					answers[i] = out.Answers
				}
				settle()
			},
		})
	}
	r.cfg.Mgr.FlushScope(r.rateDef.Name, r.cfg.Scope)
	settle()
}

// orderByScore is the rating sort: ascending score (descending when
// desc), errored items treated as smallest, ties by input order.
func orderByScore(scores []float64, errored []bool, desc bool) []int {
	perm := identity(len(scores))
	sort.SliceStable(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		c := compareScored(scores[i], errored[i], scores[j], errored[j])
		if desc {
			c = -c
		}
		return c < 0
	})
	return perm
}

func compareScored(si float64, ei bool, sj float64, ej bool) int {
	switch {
	case ei && ej:
		return 0
	case ei:
		return -1
	case ej:
		return 1
	case si < sj:
		return -1
	case si > sj:
		return 1
	default:
		return 0
	}
}

// --- compare ---------------------------------------------------------------

// CompareGroups partitions n item indices into the comparison batches
// of the all-pairs strategy: consecutive half-groups of ⌊S/2⌋ items,
// one group per pair of half-groups, so every item pair shares at least
// one S-way HIT (odd S leaves one slot unused per HIT). n ≤ S
// collapses to a single group.
func CompareGroups(n, groupSize int) [][]int {
	if n <= 1 {
		return nil
	}
	if groupSize < 2 {
		groupSize = 2
	}
	if n <= groupSize {
		return [][]int{identity(n)}
	}
	half := groupSize / 2
	m := (n + half - 1) / half
	subset := func(i int) (lo, hi int) {
		lo = i * half
		hi = lo + half
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	var groups [][]int
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			ilo, ihi := subset(i)
			jlo, jhi := subset(j)
			g := make([]int, 0, (ihi-ilo)+(jhi-jlo))
			for x := ilo; x < ihi; x++ {
				g = append(g, x)
			}
			for x := jlo; x < jhi; x++ {
				g = append(g, x)
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// CompareHITCount predicts how many comparison HITs the compare
// strategy pays for n items at batch size S, with the top-k tournament
// when 0 < topK < S. It mirrors the execution exactly, so the
// optimizer's prices and the dashboard's baselines match what runs.
func CompareHITCount(n, groupSize, topK int) int {
	if n <= 1 {
		return 0
	}
	if groupSize < 2 {
		groupSize = 2
	}
	if topK > 0 && topK < groupSize && n > groupSize {
		hits := 0
		c := n
		for c > groupSize {
			g := (c + groupSize - 1) / groupSize
			hits += g
			kept := 0
			for i := 0; i < g; i++ {
				size := groupSize
				if i == g-1 {
					size = c - groupSize*(g-1)
				}
				if size < topK {
					kept += size
				} else {
					kept += topK
				}
			}
			c = kept
		}
		return hits + 1 // the final full ordering of the survivors
	}
	return len(CompareGroups(n, groupSize))
}

// RateHITCount predicts how many rating HITs n items cost at the given
// policy batch size.
func RateHITCount(n, batchSize int) int {
	if n <= 0 {
		return 0
	}
	if batchSize < 1 {
		batchSize = 1
	}
	return (n + batchSize - 1) / batchSize
}

// winTable accumulates pairwise before-votes over the full item set;
// votes[i][j] counts rankings that placed i before j.
type winTable struct {
	votes map[[2]int]int
}

func newWinTable() *winTable { return &winTable{votes: make(map[[2]int]int)} }

// fold records every pairwise ordering implied by one HIT's rankings.
// group holds the global indices in HIT order, which is also the order
// of every ranking's Rank.
func (w *winTable) fold(group []int, rankings []taskmgr.Ranking) {
	for _, r := range rankings {
		for a := 0; a < len(group); a++ {
			for b := a + 1; b < len(group); b++ {
				if r.Rank[a] < r.Rank[b] {
					w.votes[[2]int{group[a], group[b]}]++
				} else {
					w.votes[[2]int{group[b], group[a]}]++
				}
			}
		}
	}
}

// order ranks the given indices by win ratio — the fraction of decided
// pairs whose majority puts the item earlier (Copeland scoring; a split
// vote counts half) — breaking cycles and ties deterministically: win
// ratio first, input order second. The convention: an "i before j" vote
// means i belongs earlier in the ascending output, so a higher win
// ratio sorts earlier (later under desc).
//
// Majority-per-pair, not raw vote counting, keeps the score a pure
// function of the pairwise relation: items compared in more HITs (the
// half-group layout repeats intra-subset pairs) gain no extra weight,
// which is what lets hybrid window refinement reproduce the all-pairs
// order exactly when the majorities agree.
func (w *winTable) order(indices []int, desc bool) []int {
	ratio := make(map[int]float64, len(indices))
	for _, i := range indices {
		wins, decided := 0.0, 0
		for _, j := range indices {
			if i == j {
				continue
			}
			a := w.votes[[2]int{i, j}]
			b := w.votes[[2]int{j, i}]
			if a+b == 0 {
				continue
			}
			decided++
			switch {
			case a > b:
				wins++
			case a == b:
				wins += 0.5
			}
		}
		if decided > 0 {
			ratio[i] = wins / float64(decided)
		} else {
			ratio[i] = 0.5 // never compared: neutral, input order decides
		}
	}
	out := append([]int(nil), indices...)
	sort.SliceStable(out, func(a, b int) bool {
		ri, rj := ratio[out[a]], ratio[out[b]]
		if desc {
			ri, rj = rj, ri
		}
		return ri > rj
	})
	return out
}

// rankItemsFor renders a group of global indices as the task manager's
// HIT rows.
func (r *runner) rankItemsFor(group []int) []taskmgr.RankItem {
	rows := make([]taskmgr.RankItem, len(group))
	for i, gi := range group {
		rows[i] = taskmgr.RankItem{Key: r.items[gi].Key, Args: r.items[gi].Args}
	}
	return rows
}

// allPairs orders the given indices by comparison HITs covering every
// pair, then hands the ordered indices to then. Submissions happen on
// the calling goroutine; then fires once the last HIT resolves.
func (r *runner) allPairs(indices []int, then func(ordered []int)) {
	if len(indices) <= 1 {
		then(append([]int(nil), indices...))
		return
	}
	groups := CompareGroups(len(indices), r.d.GroupSize)
	wt := newWinTable()
	remaining := len(groups) + 1
	settle := func() {
		r.mu.Lock()
		remaining--
		fire := remaining == 0
		r.mu.Unlock()
		if fire {
			then(wt.order(indices, r.d.Desc))
		}
	}
	for _, local := range groups {
		group := make([]int, len(local))
		for i, li := range local {
			group[i] = indices[li]
		}
		rows := r.rankItemsFor(group)
		r.cfg.Mgr.RankBlockIn(r.cfg.Scope, r.cmpDef, rows, func(rankings []taskmgr.Ranking, err error) {
			if err != nil {
				// Synchronous failures (canceled scope, exhausted
				// budget, post error) never became a HIT: count the
				// error, not the spend.
				r.cfg.reportError(err)
				r.mu.Lock()
				r.st.Errors++
				r.mu.Unlock()
			} else {
				r.mu.Lock()
				r.st.CompareHITs++
				wt.fold(group, rankings)
				r.mu.Unlock()
			}
			settle()
		})
	}
	settle()
}

// runCompare is the compare strategy: all-pairs coverage, or — with
// top-k pushdown — a selection tournament that only fully orders the
// top window. Eliminated items follow the ordered survivors in input
// order (they are past the LIMIT anyway).
func (r *runner) runCompare() {
	n := len(r.items)
	k := r.d.TopK
	if k > 0 && k < r.d.GroupSize && n > r.d.GroupSize {
		r.tournament(identity(n), func(ordered []int) {
			r.finish(fillEliminated(ordered, n))
		})
		return
	}
	r.allPairs(identity(n), r.finish)
}

// tournament runs S-way elimination rounds, keeping the top k of every
// group, until one group remains; that final group is ordered exactly.
func (r *runner) tournament(candidates []int, then func(ordered []int)) {
	S := r.d.GroupSize
	if len(candidates) <= S {
		r.allPairs(candidates, then)
		return
	}
	type groupResult struct {
		kept []int
	}
	var groups [][]int
	for lo := 0; lo < len(candidates); lo += S {
		hi := lo + S
		if hi > len(candidates) {
			hi = len(candidates)
		}
		groups = append(groups, candidates[lo:hi])
	}
	results := make([]groupResult, len(groups))
	remaining := len(groups) + 1
	settle := func() {
		r.mu.Lock()
		remaining--
		fire := remaining == 0
		r.mu.Unlock()
		if !fire {
			return
		}
		var next []int
		for _, res := range results {
			next = append(next, res.kept...)
		}
		r.tournament(next, then)
	}
	for gi, group := range groups {
		gi, group := gi, group
		rows := r.rankItemsFor(group)
		r.cfg.Mgr.RankBlockIn(r.cfg.Scope, r.cmpDef, rows, func(rankings []taskmgr.Ranking, err error) {
			keep := r.d.TopK
			if keep > len(group) {
				keep = len(group)
			}
			if err != nil {
				// Never became a HIT (see allPairs): count the error,
				// not the spend.
				r.cfg.reportError(err)
				r.mu.Lock()
				r.st.Errors++
				r.mu.Unlock()
				// No evidence: keep the group's prefix in input order.
				results[gi] = groupResult{kept: append([]int(nil), group[:keep]...)}
				settle()
				return
			}
			wt := newWinTable()
			r.mu.Lock()
			r.st.CompareHITs++
			wt.fold(group, rankings)
			r.mu.Unlock()
			ordered := wt.order(group, r.d.Desc)
			results[gi] = groupResult{kept: ordered[:keep]}
			settle()
		})
	}
	settle()
}

// fillEliminated appends every index missing from ordered, in input
// order, producing a full permutation.
func fillEliminated(ordered []int, n int) []int {
	seen := make([]bool, n)
	for _, i := range ordered {
		seen[i] = true
	}
	out := append([]int(nil), ordered...)
	for i := 0; i < n; i++ {
		if !seen[i] {
			out = append(out, i)
		}
	}
	return out
}

// --- hybrid ----------------------------------------------------------------

// window is a run of adjacent positions in the rating order whose
// confidence intervals overlap: ratings cannot distinguish the members,
// so comparison HITs resolve them.
type window struct{ lo, hi int } // positions [lo, hi) in the rating order

// ratingWindows scans the rating order and groups maximal runs of
// adjacent items whose intervals [mean−e, mean+e] overlap.
func ratingWindows(perm []int, scores []float64, half []float64, errored []bool) []window {
	var out []window
	lo := 0
	for p := 1; p <= len(perm); p++ {
		joined := false
		if p < len(perm) {
			i, j := perm[p-1], perm[p]
			if !errored[i] && !errored[j] {
				joined = scores[i]+half[i] >= scores[j]-half[j]
			}
		}
		if joined {
			continue
		}
		if p-lo >= 2 {
			out = append(out, window{lo: lo, hi: p})
		}
		lo = p
	}
	return out
}

// ciHalfWidth is the ~95% half-width of a rating's mean from its
// per-assignment answers. A single vote carries half a scale step of
// uncertainty; unanimous votes carry none.
func ciHalfWidth(answers []relation.Value) float64 {
	n := len(answers)
	if n <= 1 {
		return 0.5
	}
	mean := 0.0
	for _, v := range answers {
		mean += v.Float()
	}
	mean /= float64(n)
	variance := 0.0
	for _, v := range answers {
		d := v.Float() - mean
		variance += d * d
	}
	variance /= float64(n - 1)
	return 1.96 * math.Sqrt(variance/float64(n))
}

// runHybrid rates everything, finds the uncertain windows, and
// comparison-refines them — top-k-relevant windows only under LIMIT
// pushdown, and never past the remaining budget.
func (r *runner) runHybrid() {
	r.runRate(func(scores []float64, errored []bool, answers [][]relation.Value) {
		perm := orderByScore(scores, errored, r.d.Desc)
		half := make([]float64, len(r.items))
		for i := range half {
			half[i] = ciHalfWidth(answers[i])
		}
		// Windows are runs in rating order; under desc the scan must
		// still walk ascending means, so reuse the ascending order.
		asc := perm
		if r.d.Desc {
			asc = reversed(perm)
		}
		windows := ratingWindows(asc, scores, half, errored)
		if r.d.Desc {
			// Translate ascending positions to the desc output's frame.
			n := len(perm)
			flipped := make([]window, len(windows))
			for i, w := range windows {
				flipped[len(windows)-1-i] = window{lo: n - w.hi, hi: n - w.lo}
			}
			windows = flipped
		}
		if r.d.TopK > 0 {
			kept := windows[:0]
			for _, w := range windows {
				if w.lo < r.d.TopK {
					kept = append(kept, w)
				}
			}
			windows = kept
		}
		windows = r.capWindows(windows)
		if len(windows) == 0 {
			r.finish(perm)
			return
		}
		remaining := len(windows) + 1
		settle := func() {
			r.mu.Lock()
			remaining--
			fire := remaining == 0
			r.mu.Unlock()
			if fire {
				r.finish(perm)
			}
		}
		for _, w := range windows {
			w := w
			members := append([]int(nil), perm[w.lo:w.hi]...)
			r.mu.Lock()
			r.st.Windows++
			r.st.Refined += len(members)
			r.mu.Unlock()
			r.allPairs(members, func(ordered []int) {
				r.mu.Lock()
				copy(perm[w.lo:w.hi], ordered)
				r.mu.Unlock()
				settle()
			})
		}
		settle()
	})
}

// capWindows trims the refinement worklist to the HIT budget: windows
// are taken in output order (the top of the result first — the most
// valuable positions) until the predicted comparison cost exceeds the
// cap. The cap is Decision.MaxRefineHITs, or the scope's remaining
// budget at the comparison task's policy when unset.
func (r *runner) capWindows(windows []window) []window {
	capHITs := r.d.MaxRefineHITs
	if capHITs <= 0 {
		remaining, ok := r.cfg.Scope.RemainingBudget()
		if !ok {
			return windows
		}
		pol := r.cfg.Mgr.PolicyFor(r.cmpDef).Clamped()
		perHIT := pol.PriceCents * int64(pol.Assignments)
		capHITs = int(int64(remaining) / perHIT)
	}
	spent := 0
	for i, w := range windows {
		cost := CompareHITCount(w.hi-w.lo, r.d.GroupSize, 0)
		if spent+cost > capHITs {
			return windows[:i]
		}
		spent += cost
	}
	return windows
}

func reversed(perm []int) []int {
	out := make([]int, len(perm))
	for i, v := range perm {
		out[len(perm)-1-i] = v
	}
	return out
}
