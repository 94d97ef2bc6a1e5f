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

// TestJoinBlockRepeatedKeyResolvesEveryPair: keys route the workers'
// answers, so a grid whose posted columns repeat a key would collapse
// two pairs into one question and leave the caller waiting on a
// callback that never comes. Every uncached pair must resolve with an
// error instead, with nothing posted or charged; a cached pair resolves
// from the cache as usual.
func TestJoinBlockRepeatedKeyResolvesEveryPair(t *testing.T) {
	yes := crowd.OracleFunc(func(string, []relation.Value) relation.Value { return relation.NewBool(true) })
	cases := []struct {
		name        string
		left, right []JoinItem
		cached      [2]int // position answered from the cache, or {-1, -1}
	}{
		{name: "left",
			left:   []JoinItem{{Key: "l1", Args: imageArgs("a.png")}, {Key: "l1", Args: imageArgs("b.png")}},
			right:  []JoinItem{{Key: "r1", Args: imageArgs("c.png")}},
			cached: [2]int{-1, -1}},
		{name: "right",
			left:   []JoinItem{{Key: "l1", Args: imageArgs("a.png")}},
			right:  []JoinItem{{Key: "r1", Args: imageArgs("b.png")}, {Key: "r1", Args: imageArgs("c.png")}},
			cached: [2]int{-1, -1}},
		{name: "beside a cached pair",
			left:   []JoinItem{{Key: "l1", Args: imageArgs("a.png")}, {Key: "l1", Args: imageArgs("b.png")}},
			right:  []JoinItem{{Key: "r1", Args: imageArgs("c.png")}, {Key: "r2", Args: imageArgs("d.png")}},
			cached: [2]int{0, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, clock := newRig(t, yes, crowd.Config{MeanSkill: 0.99}, 0)
			def := joinDef()
			if c.cached[0] >= 0 {
				// Answer the cached pair through a grid with distinct keys.
				m.JoinBlockIn(nil, def, []JoinItem{{Key: "x", Args: c.left[c.cached[0]].Args}},
					[]JoinItem{{Key: "y", Args: c.right[c.cached[1]].Args}}, func(int, int, Outcome) {})
				for clock.Step() {
				}
			}
			spent, posted := m.Account().Spent(), m.StatsFor(def.Name).HITsPosted

			var mu sync.Mutex
			calls := 0
			got := map[[2]int]Outcome{}
			m.JoinBlockIn(nil, def, c.left, c.right, func(l, r int, out Outcome) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				got[[2]int{l, r}] = out
			})
			for clock.Step() {
			}
			mu.Lock()
			defer mu.Unlock()
			want := len(c.left) * len(c.right)
			if calls != want || len(got) != want {
				t.Fatalf("%d callbacks over %d positions, want one per pair (%d)", calls, len(got), want)
			}
			for pos, out := range got {
				if pos == c.cached {
					if out.Err != nil || !out.FromCache {
						t.Errorf("cached pair %v: %+v, want a cache hit", pos, out)
					}
				} else if out.Err == nil {
					t.Errorf("pair %v resolved to %v without an error", pos, out.Value)
				}
			}
			if s := m.Account().Spent(); s != spent {
				t.Errorf("spent %v, want %v: nothing should be charged", s, spent)
			}
			if n := m.StatsFor(def.Name).HITsPosted; n != posted {
				t.Errorf("%d HITs posted, want %d", n, posted)
			}
		})
	}
}

// joinRefPair is one unresolved cell of the reference shrink.
type joinRefPair struct{ l, r JoinItem }

// dedupeJoinItems is the shrink JoinBlockIn used before it carried
// cells by position, kept as the reference: the distinct left (or
// right) items of the unresolved pairs, preserving first-seen order.
func dedupeJoinItems(pairs []joinRefPair, left bool) []JoinItem {
	seen := make(map[string]bool)
	var out []JoinItem
	for _, p := range pairs {
		it := p.r
		if left {
			it = p.l
		}
		if !seen[it.Key] {
			seen[it.Key] = true
			out = append(out, it)
		}
	}
	return out
}

// TestJoinShrinkMatchesReference posts grids over randomized masks of
// cached cells, with whole rows and columns cached now and then, and
// requires the HIT's Left and Right columns in the reference's order,
// cells row-major over them, and the same set of waited-on cells.
func TestJoinShrinkMatchesReference(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	def := joinDef()
	var posted *hit.HIT
	hook := func(h *hit.HIT) error { posted = h; return nil }
	m.postHook.Store(&hook)
	keys := func(items []JoinItem) []string {
		out := make([]string, len(items))
		for i, it := range items {
			out[i] = it.Key
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		nl, nr := 1+rng.Intn(8), 1+rng.Intn(8)
		left := make([]JoinItem, nl)
		for i := range left {
			left[i] = JoinItem{Key: fmt.Sprintf("L%d", i), Args: imageArgs(fmt.Sprintf("t%d-l%d.png", trial, i))}
		}
		right := make([]JoinItem, nr)
		for i := range right {
			right[i] = JoinItem{Key: fmt.Sprintf("R%d", i), Args: imageArgs(fmt.Sprintf("t%d-r%d.png", trial, i))}
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
					args := append(append([]relation.Value{}, left[l].Args...), right[r].Args...)
					m.Cache().Put(cache.NewKey(def.Name, args), cache.EncodeAnswers([]relation.Value{relation.NewBool(true)}))
				} else {
					unresolved = append(unresolved, joinRefPair{left[l], right[r]})
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
		wantLeft, wantRight := keys(dedupeJoinItems(unresolved, true)), keys(dedupeJoinItems(unresolved, false))
		gotLeft := make([]string, len(posted.Left))
		for i, it := range posted.Left {
			gotLeft[i] = it.Key
		}
		gotRight := make([]string, len(posted.Right))
		for i, it := range posted.Right {
			gotRight[i] = it.Key
		}
		if !slices.Equal(gotLeft, wantLeft) || !slices.Equal(gotRight, wantRight) {
			t.Fatalf("trial %d: HIT columns %v × %v, want %v × %v", trial, gotLeft, gotRight, wantLeft, wantRight)
		}

		m.flights.mu.Lock()
		fl := m.flights.hits[posted.ID]
		m.flights.mu.Unlock()
		if len(fl.cells) != len(gotLeft)*len(gotRight) {
			t.Fatalf("trial %d: %d cells for a %dx%d grid", trial, len(fl.cells), len(gotLeft), len(gotRight))
		}
		waited := map[string]bool{}
		for i, c := range fl.cells {
			lk, rk := gotLeft[i/len(gotRight)], gotRight[i%len(gotRight)]
			// Cell i is the HIT's question i: row-major over its columns.
			if left[c.l].Key != lk || right[c.r].Key != rk {
				t.Fatalf("trial %d: cell %d is (%s, %s) at (%d, %d), want (%s, %s)",
					trial, i, left[c.l].Key, right[c.r].Key, c.l, c.r, lk, rk)
			}
			if c.wait {
				waited[hit.PairKey(lk, rk)] = true
			}
		}
		for _, p := range unresolved {
			if key := hit.PairKey(p.l.Key, p.r.Key); !waited[key] {
				t.Fatalf("trial %d: unresolved cell %s is not waited on", trial, key)
			}
		}
		if len(waited) != len(unresolved) {
			t.Fatalf("trial %d: %d cells waited on, want the %d unresolved", trial, len(waited), len(unresolved))
		}
	}
}
