package taskmgr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/crowd"
)

// refCutBatchesLocked is the map-based cut that cutBatchesLocked
// replaced, kept as the reference for TestCutMatchesReference: it
// groups pending items through a map, cuts each group's batches out of
// the group's own slice and appends the leftovers back into pending in
// group order.
func (st *taskState) refCutBatchesLocked(base Policy, force bool) [][]pendingItem {
	if len(st.pending) == 0 {
		return nil
	}
	mixed := false
	for _, it := range st.pending[1:] {
		if it.priority != st.pending[0].priority {
			mixed = true
			break
		}
	}
	if mixed {
		sort.SliceStable(st.pending, func(i, j int) bool {
			return st.pending[i].priority > st.pending[j].priority
		})
	}
	byGroup := make(map[batchGroup][]pendingItem)
	var order []batchGroup
	for _, it := range st.pending {
		g := batchGroup{assignments: it.assignments, scope: it.scope}
		if it.shared {
			g = batchGroup{assignments: it.assignments, shared: true,
				pol: st.scopedPolicyLocked(base, it.scope)}
		}
		if _, seen := byGroup[g]; !seen {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], it)
	}
	st.pending = st.pending[:0]
	var batches [][]pendingItem
	for _, g := range order {
		items := byGroup[g]
		size := g.pol.BatchSize
		if !g.shared {
			size = st.scopedPolicyLocked(base, g.scope).BatchSize
		}
		for len(items) >= size || (force && len(items) > 0) {
			n := size
			if n > len(items) {
				n = len(items)
			}
			batches = append(batches, items[:n:n])
			items = items[n:]
		}
		st.pending = append(st.pending, items...)
	}
	return batches
}

func itemKeys(items []pendingItem) []string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.key
	}
	return keys
}

func batchKeys(batches [][]pendingItem) [][]string {
	out := make([][]string, len(batches))
	for i, b := range batches {
		out[i] = itemKeys(b)
	}
	return out
}

// TestCutMatchesReference cuts randomized pending lists with both the
// slot cut and the map-based reference and requires identical batches
// and an identical leftover order. The lists mix equal and differing
// priorities (so the stable sort runs), assignments overrides, the nil
// scope and scopes with and without their own policy, shared and
// unshared items, a task with and without its own policy, and force on
// and off. Every returned batch must own its backing: appending to it
// or overwriting its items changes neither pending nor another batch.
func TestCutMatchesReference(t *testing.T) {
	m, _ := newRig(t, catOracle, crowd.Config{}, 0)
	def := filterDef()
	scopes := []*Scope{nil}
	for i := 0; i < 5; i++ {
		sc := m.NewScope()
		if i%2 == 0 {
			// Scopes 1 and 3 share a policy, so their shared items may
			// co-batch; scope 5's batch size differs.
			sc.SetPolicy(def.Name, Policy{Assignments: 3, BatchSize: 3 + i/4, PriceCents: 1, Linger: time.Minute})
		}
		scopes = append(scopes, sc)
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		mixedPrio := rng.Intn(2) == 0
		pending := make([]pendingItem, rng.Intn(45))
		for i := range pending {
			it := pendingItem{
				key:         fmt.Sprintf("t%03d", i),
				scope:       scopes[rng.Intn(len(scopes))],
				assignments: []int{0, 0, 0, 1, 5}[rng.Intn(5)],
				shared:      rng.Intn(3) == 0,
			}
			if mixedPrio {
				it.priority = rng.Intn(3) - 1
			}
			pending[i] = it
		}
		base := Policy{Assignments: 3, BatchSize: 1 + rng.Intn(6), PriceCents: 1, Linger: time.Minute}
		own := rng.Intn(3) == 0
		ownPol := Policy{Assignments: 3, BatchSize: 1 + rng.Intn(6), PriceCents: 2}
		force := rng.Intn(2) == 0
		newState := func() *taskState {
			return &taskState{name: "iscat", def: def, policy: ownPol, hasOwnPolicy: own,
				pending: append([]pendingItem(nil), pending...)}
		}
		ref, got := newState(), newState()
		want := ref.refCutBatchesLocked(base, force)
		batches := got.cutBatchesLocked(base, force)
		tag := fmt.Sprintf("iter %d (%d pending, force=%v, mixed=%v)", iter, len(pending), force, mixedPrio)
		if !reflect.DeepEqual(batchKeys(batches), batchKeys(want)) {
			t.Fatalf("%s: batches\n got %v\nwant %v", tag, batchKeys(batches), batchKeys(want))
		}
		if !reflect.DeepEqual(batches, want) {
			t.Fatalf("%s: batch items differ from the reference's", tag)
		}
		if !reflect.DeepEqual(itemKeys(got.pending), itemKeys(ref.pending)) {
			t.Fatalf("%s: leftovers\n got %v\nwant %v", tag, itemKeys(got.pending), itemKeys(ref.pending))
		}
		if len(got.pending) < cap(got.pending) {
			if tail := got.pending[len(got.pending):cap(got.pending)]; !reflect.DeepEqual(tail, make([]pendingItem, len(tail))) {
				t.Fatalf("%s: pending keeps cut items past its length", tag)
			}
		}

		leftKeys := itemKeys(got.pending)
		keys := batchKeys(batches)
		for i := range batches {
			b := batches[i]
			_ = append(b, pendingItem{key: "appended"})
			for j := range b {
				b[j].key = "overwritten"
			}
			if !reflect.DeepEqual(itemKeys(got.pending), leftKeys) {
				t.Fatalf("%s: writing batch %d changed pending", tag, i)
			}
			for k := range batches {
				if k != i && !reflect.DeepEqual(itemKeys(batches[k]), keys[k]) {
					t.Fatalf("%s: writing batch %d changed batch %d", tag, i, k)
				}
			}
			if len(b) != cap(b) {
				t.Fatalf("%s: batch %d has spare capacity %d", tag, i, cap(b)-len(b))
			}
			for j := range b {
				b[j].key = keys[i][j]
			}
		}
	}
}
