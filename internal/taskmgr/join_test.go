package taskmgr

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/crowd"
	"repro/internal/hit"
	"repro/internal/relation"
)

func imageArgs(name string) []relation.Value {
	return []relation.Value{relation.NewImage(name)}
}

// TestJoinBlockRepeatedArgsResolveEachPair: a grid names its cells by
// position, so two rows (or columns) with identical arguments are two
// rows of the posted HIT, and each pair resolves once, at its own
// position. Pairs already in the cache resolve from it, beside the
// posted ones.
func TestJoinBlockRepeatedArgsResolveEachPair(t *testing.T) {
	yes := crowd.OracleFunc(func(string, []relation.Value) relation.Value { return relation.NewBool(true) })
	a, b, c := imageArgs("a.png"), imageArgs("b.png"), imageArgs("c.png")
	cases := []struct {
		name        string
		left, right [][]relation.Value
		cached      [][2]int // positions answered from the cache
		rows, cols  int      // the posted grid's shape
	}{
		{name: "left", left: [][]relation.Value{a, a}, right: [][]relation.Value{b}, rows: 2, cols: 1},
		{name: "right", left: [][]relation.Value{a}, right: [][]relation.Value{b, b}, rows: 1, cols: 2},
		{name: "beside a cached pair", left: [][]relation.Value{a, a}, right: [][]relation.Value{b, c},
			cached: [][2]int{{0, 0}, {1, 0}}, rows: 2, cols: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, clock := newRig(t, yes, crowd.Config{MeanSkill: 0.99}, 0)
			def := joinDef()
			if len(tc.cached) > 0 {
				// Answer the cached pair through a grid of its own.
				pos := tc.cached[0]
				m.JoinBlockIn(nil, def, tc.left[pos[0]:pos[0]+1], tc.right[pos[1]:pos[1]+1], func(int, int, Outcome) {})
				for clock.Step() {
				}
			}
			spent, posted := m.Account().Spent(), m.StatsFor(def.Name).HITsPosted
			var grid *hit.HIT
			hook := func(h *hit.HIT) error { grid = h; return nil }
			m.postHook.Store(&hook)

			var mu sync.Mutex
			calls := map[[2]int]int{}
			got := map[[2]int]Outcome{}
			m.JoinBlockIn(nil, def, tc.left, tc.right, func(l, r int, out Outcome) {
				mu.Lock()
				defer mu.Unlock()
				calls[[2]int{l, r}]++
				got[[2]int{l, r}] = out
			})
			for clock.Step() {
			}
			mu.Lock()
			defer mu.Unlock()
			for l := range tc.left {
				for r := range tc.right {
					pos := [2]int{l, r}
					out := got[pos]
					switch {
					case calls[pos] != 1:
						t.Errorf("pair %v resolved %d times, want once", pos, calls[pos])
					case out.Err != nil || !out.Value.Truthy():
						t.Errorf("pair %v: %+v, want a match", pos, out)
					case out.FromCache != slices.Contains(tc.cached, pos):
						t.Errorf("pair %v: from cache %v, want %v", pos, out.FromCache, !out.FromCache)
					}
				}
			}
			if len(calls) != len(tc.left)*len(tc.right) {
				t.Errorf("callbacks at %d positions, want %d", len(calls), len(tc.left)*len(tc.right))
			}
			if grid == nil || len(grid.Left) != tc.rows || len(grid.Right) != tc.cols {
				t.Fatalf("posted grid %+v, want %d×%d", grid, tc.rows, tc.cols)
			}
			if n := m.StatsFor(def.Name).HITsPosted; n != posted+1 {
				t.Errorf("%d HITs posted, want %d", n, posted+1)
			}
			if s := m.Account().Spent(); s <= spent {
				t.Errorf("spent %v, want more than %v: the grid is paid", s, spent)
			}
		})
	}
}

// joinRefPair is one unresolved cell of the reference shrink, by its
// left and right positions.
type joinRefPair struct{ l, r int }

// dedupeJoinItems is the shrink JoinBlockIn used before it carried
// cells by position, kept as the reference: the distinct left (or
// right) positions of the unresolved pairs, preserving first-seen
// order.
func dedupeJoinItems(pairs []joinRefPair, left bool) []int {
	seen := make(map[int]bool)
	var out []int
	for _, p := range pairs {
		it := p.r
		if left {
			it = p.l
		}
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	return out
}

// TestJoinShrinkMatchesReference posts grids over randomized masks of
// cached cells, with whole rows and columns cached now and then, and
// requires the HIT's Left and Right columns in the reference's order,
// cells row-major over them, and the same set of waited-on cells. Every
// row and column shows one image of its own, so the image names it.
func TestJoinShrinkMatchesReference(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	def := joinDef()
	var posted *hit.HIT
	hook := func(h *hit.HIT) error { posted = h; return nil }
	m.postHook.Store(&hook)
	names := func(side [][]relation.Value, positions []int) []string {
		out := make([]string, len(positions))
		for i, p := range positions {
			out[i] = side[p][0].Str()
		}
		return out
	}
	shown := func(col []hit.Item) []string {
		out := make([]string, len(col))
		for i, it := range col {
			out[i] = it.Args[0].Str()
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		nl, nr := 1+rng.Intn(8), 1+rng.Intn(8)
		left := make([][]relation.Value, nl)
		for i := range left {
			left[i] = imageArgs(fmt.Sprintf("t%d-l%d.png", trial, i))
		}
		right := make([][]relation.Value, nr)
		for i := range right {
			right[i] = imageArgs(fmt.Sprintf("t%d-r%d.png", trial, i))
		}
		p := rng.Float64()
		cached := make([]bool, nl*nr)
		for i := range cached {
			cached[i] = rng.Float64() < p
		}
		if rng.Intn(3) == 0 {
			for r, l := 0, rng.Intn(nl); r < nr; r++ {
				cached[l*nr+r] = true
			}
		}
		if rng.Intn(3) == 0 {
			for l, r := 0, rng.Intn(nr); l < nl; l++ {
				cached[l*nr+r] = true
			}
		}
		var unresolved []joinRefPair
		for l := range left {
			for r := range right {
				if cached[l*nr+r] {
					args := append(append([]relation.Value{}, left[l]...), right[r]...)
					m.Cache().Put(cache.NewKey(def.Name, args), cache.EncodeAnswers([]relation.Value{relation.NewBool(true)}))
				} else {
					unresolved = append(unresolved, joinRefPair{l, r})
				}
			}
		}

		posted = nil
		m.JoinBlockIn(nil, def, left, right, func(int, int, Outcome) {})
		if len(unresolved) == 0 {
			if posted != nil {
				t.Fatalf("trial %d: fully cached grid posted %s", trial, posted.ID)
			}
			continue
		}
		if posted == nil {
			t.Fatalf("trial %d: %d unresolved cells but no HIT", trial, len(unresolved))
		}
		wantLeft, wantRight := names(left, dedupeJoinItems(unresolved, true)), names(right, dedupeJoinItems(unresolved, false))
		gotLeft, gotRight := shown(posted.Left), shown(posted.Right)
		if !slices.Equal(gotLeft, wantLeft) || !slices.Equal(gotRight, wantRight) {
			t.Fatalf("trial %d: HIT columns %v × %v, want %v × %v", trial, gotLeft, gotRight, wantLeft, wantRight)
		}

		m.flights.mu.Lock()
		fl := m.flights.hits[posted.ID]
		m.flights.mu.Unlock()
		if len(fl.cells) != len(gotLeft)*len(gotRight) {
			t.Fatalf("trial %d: %d cells for a %dx%d grid", trial, len(fl.cells), len(gotLeft), len(gotRight))
		}
		waited := map[joinRefPair]bool{}
		for i, c := range fl.cells {
			ln, rn := gotLeft[i/len(gotRight)], gotRight[i%len(gotRight)]
			// Cell i is the HIT's question i: row-major over its columns.
			if left[c.l][0].Str() != ln || right[c.r][0].Str() != rn {
				t.Fatalf("trial %d: cell %d is (%s, %s) at (%d, %d), want (%s, %s)",
					trial, i, left[c.l][0].Str(), right[c.r][0].Str(), c.l, c.r, ln, rn)
			}
			if c.wait {
				waited[joinRefPair{c.l, c.r}] = true
			}
		}
		for _, p := range unresolved {
			if !waited[p] {
				t.Fatalf("trial %d: unresolved cell %v is not waited on", trial, p)
			}
		}
		if len(waited) != len(unresolved) {
			t.Fatalf("trial %d: %d cells waited on, want the %d unresolved", trial, len(waited), len(unresolved))
		}
	}
}
