package taskmgr

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hit"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// JoinBlockIn evaluates the cross product of left×right through the
// two-column JoinColumns interface (Figure 3): one HIT answers
// |left|·|right| pair questions at once, the batching that makes human
// joins affordable. Each element of left and right is one row's
// arguments, the values shown for it (typically one image). done fires
// exactly once per (l, r) position, where l indexes left and r indexes
// right.
//
// Cached pairs are answered for free; if every pair is cached no HIT is
// posted. Otherwise the grid shrinks to the rows/columns still needed
// (workers answer all shown pairs; fresh answers refresh the cache).
// The grid HIT lives through the same lifecycle as every other HIT, so
// it honours the task's answer inference: under EM it posts at the
// adaptive floor and extends while a cell's posterior stays unsure.
// Each cell is answered at its own position, so two rows with equal
// arguments are two rows of the posted grid.
//
// scope binds the grid to a query (nil = unscoped): a canceled scope
// resolves every pair immediately with the cause, and the posted grid
// HIT is registered for expiry/refund should the scope cancel mid-HIT.
func (m *Manager) JoinBlockIn(scope *Scope, def *qlang.TaskDef, left, right [][]relation.Value, done func(l, r int, out Outcome)) {
	if len(left) == 0 || len(right) == 0 {
		return
	}
	if cause := scope.Err(); cause != nil {
		err := fmt.Errorf("taskmgr: %s: %w", def.Name, cause)
		for l := range left {
			for r := range right {
				done(l, r, Outcome{Err: err})
			}
		}
		return
	}
	st := m.state(def.Name, def)
	base := m.basePolicy()
	st.mu.Lock()
	pol := st.scopedPolicyLocked(base, scope)
	st.mu.Unlock()
	m.count(st, &st.submitted, obs.MetricSubmissions, int64(len(left)*len(right)))

	// Walk left×right once, row-major, resolving what we can from cache
	// and model. The cells that remain are the ones the caller waits on.
	grid := newJoinGrid(def.Name, left, right)
	var resolved []resolution // free answers, by grid position
	unresolved := 0
	for i := range grid {
		c := &grid[i]
		if out, ok := m.answerFree(st, pol, def, c.args, c.ckey, "", nil); ok {
			resolved = append(resolved, resolution{q: i, out: out})
			continue
		}
		c.wait = true
		unresolved++
	}
	var free func()
	if len(resolved) > 0 {
		free = func() {
			for _, r := range resolved {
				done(r.q/len(right), r.q%len(right), r.out)
			}
		}
	}
	if unresolved == 0 {
		free()
		return
	}

	rows, cols := shrinkJoinGrid(grid, len(left), len(right))
	fl := m.openHIT(kindGrid, def, st, pol, scope, nil)
	h := &hit.HIT{
		ID:          m.market.NewHITID(),
		Task:        def.Name,
		Type:        def.Type,
		Title:       def.Name,
		Question:    hit.RenderText(def.Text, def.TextArgs, def.Params, nil),
		Response:    joinResponse(def),
		Assignments: fl.assign,
		Left:        make([]hit.Item, len(rows)),
		Right:       make([]hit.Item, len(cols)),
	}
	if h.Question == "" {
		h.Question = "Match the items in the left column with the items in the right column."
	}
	for i, l := range rows {
		h.Left[i] = hit.Item{Args: left[l]}
	}
	for j, r := range cols {
		h.Right[j] = hit.Item{Args: right[r]}
	}
	// The HIT's cells, row-major over h.Left×h.Right: cell i is the
	// HIT's question i.
	cells := make([]joinCell, 0, len(rows)*len(cols))
	for _, l := range rows {
		for _, r := range cols {
			cells = append(cells, grid[l*len(right)+r])
		}
	}
	fl.hit, fl.cells, fl.gridDone = h, cells, done
	m.enqueue(fl, pol, free)
	m.dispatch()
}

// joinCell is one cell of a join grid, from the walk that asks to the
// finalize that answers. A grid HIT keeps its cells compact: no per-cell
// pending item or callback, only the caller's positions for delivery.
type joinCell struct {
	args []relation.Value // left's arguments, then right's
	ckey cache.Key        // task cache key of args, encoded once
	l, r int              // the caller's left and right positions
	wait bool             // the caller waits on this cell's outcome
}

// newJoinGrid lays out left×right row-major, carving every cell's
// arguments from one backing array and encoding each cache key once.
func newJoinGrid(task string, left, right [][]relation.Value) []joinCell {
	var leftArgs, rightArgs int
	for _, args := range left {
		leftArgs += len(args)
	}
	for _, args := range right {
		rightArgs += len(args)
	}
	backing := make([]relation.Value, leftArgs*len(right)+rightArgs*len(left))
	grid := make([]joinCell, 0, len(left)*len(right))
	for l := range left {
		for r := range right {
			n := len(left[l]) + len(right[r])
			args := append(append(backing[:0:n], left[l]...), right[r]...)
			backing = backing[n:]
			grid = append(grid, joinCell{args: args, ckey: cache.NewKey(task, args), l: l, r: r})
		}
	}
	return grid
}

// shrinkJoinGrid picks the rows and columns of the grid a HIT must show
// to cover every waited-on cell: rows are the needed left positions,
// ascending; columns the needed right positions in the order a
// row-major scan of waited-on cells first meets them, which is not
// always ascending.
func shrinkJoinGrid(grid []joinCell, nLeft, nRight int) (rows, cols []int) {
	rows = make([]int, 0, nLeft)
	cols = make([]int, 0, nRight)
	seen := make([]bool, nRight)
	for l := 0; l < nLeft; l++ {
		needed := false
		for r := 0; r < nRight; r++ {
			if !grid[l*nRight+r].wait {
				continue
			}
			needed = true
			if !seen[r] {
				seen[r] = true
				cols = append(cols, r)
			}
		}
		if needed {
			rows = append(rows, l)
		}
	}
	return rows, cols
}

// joinResponse derives the JoinColumns response for a join task,
// defaulting labels when the definition used YesNo.
func joinResponse(def *qlang.TaskDef) qlang.Response {
	if def.Response.Kind == qlang.ResponseJoinColumns {
		return def.Response
	}
	return qlang.Response{
		Kind:      qlang.ResponseJoinColumns,
		LeftLabel: "Left", RightLabel: "Right",
	}
}
