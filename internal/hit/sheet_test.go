package hit

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// groupHIT is a grouped HIT: two different filters asked about one
// tuple, each item naming its own task.
func groupHIT() *HIT {
	return &HIT{
		ID: "HG", Task: "isCat", Type: qlang.TaskFilter,
		Question: "Answer both.", Response: qlang.Response{Kind: qlang.ResponseYesNo},
		Items: []Item{
			{Key: "g1", Task: "isCat", Args: []relation.Value{relation.NewImage("x.png")}},
			{Key: "g2", Task: "isOutdoor", Args: []relation.Value{relation.NewImage("x.png")}},
		},
		GroupKeys:   []string{"isCat", "isOutdoor"},
		RewardCents: 1, Assignments: 1,
	}
}

// gridHIT is a 2×3 JoinColumns HIT.
func gridHIT() *HIT {
	h := joinHIT()
	h.Right = append(h.Right,
		Item{Key: "s2", Args: []relation.Value{relation.NewImage("s2.png")}},
		Item{Key: "s3", Args: []relation.Value{relation.NewImage("s3.png")}})
	return h
}

func sheetOf(vals ...relation.Value) Answers { return Answers{WorkerID: "w7", Values: vals} }

func TestSheetWireRoundTrip(t *testing.T) {
	b := relation.NewBool
	cases := []struct {
		name  string
		h     *HIT
		sheet Answers
	}{
		{"item", ratingHIT(), sheetOf(relation.NewInt(5), relation.NewInt(2))},
		{"group", groupHIT(), sheetOf(b(true), b(false))},
		{"grid", gridHIT(), sheetOf(b(false), b(true), b(false), b(true), b(true), b(false))},
		{"order", orderHIT(4), sheetOf(relation.NewInt(3), relation.NewInt(0), relation.NewInt(2), relation.NewInt(1))},
	}
	for _, tc := range cases {
		if err := tc.h.CheckAnswers(tc.sheet); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		keyed, err := tc.h.KeyedAnswers(tc.sheet)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		keys := tc.h.Keys()
		if len(keyed) != len(keys) {
			t.Fatalf("%s: keyed = %v, want keys %q", tc.name, keyed, keys)
		}
		for i, k := range keys {
			if v, ok := keyed[k]; !ok || !v.Equal(tc.sheet.Values[i]) {
				t.Errorf("%s: key %q = %v, want question %d's %v", tc.name, k, v, i, tc.sheet.Values[i])
			}
		}
		back, err := tc.h.AnswersFromKeyed(tc.sheet.WorkerID, keyed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back.WorkerID != tc.sheet.WorkerID || len(back.Values) != len(tc.sheet.Values) {
			t.Fatalf("%s: round trip = %+v, want %+v", tc.name, back, tc.sheet)
		}
		for i := range back.Values {
			if !back.Values[i].Equal(tc.sheet.Values[i]) {
				t.Errorf("%s: question %d = %v, want %v", tc.name, i, back.Values[i], tc.sheet.Values[i])
			}
		}
	}
	// Cell (l, r) of a grid is question l*len(Right)+r under its pair key.
	h := gridHIT()
	keyed, _ := h.KeyedAnswers(sheetOf(b(false), b(false), b(false), b(false), b(true), b(false)))
	if !keyed[PairKey("c2", "s2")].Bool() {
		t.Errorf("cell (1, 1) is not question 4: %v", keyed)
	}
}

func TestSheetRejectsMalformed(t *testing.T) {
	b := relation.NewBool
	h := gridHIT()
	for _, n := range []int{0, 5, 7} {
		sheet := Answers{Values: make([]relation.Value, n)}
		if err := h.CheckAnswers(sheet); err == nil {
			t.Errorf("CheckAnswers accepted %d answers for 6 questions", n)
		}
		if _, err := h.KeyedAnswers(sheet); err == nil {
			t.Errorf("KeyedAnswers accepted %d answers for 6 questions", n)
		}
	}
	full := func() map[string]relation.Value {
		keyed := make(map[string]relation.Value)
		for _, k := range h.Keys() {
			keyed[k] = b(true)
		}
		return keyed
	}
	missing := full()
	delete(missing, PairKey("c1", "s3"))
	if _, err := h.AnswersFromKeyed("w", missing); err == nil {
		t.Error("a keyed assignment missing a question was accepted")
	}
	foreign := full()
	foreign[PairKey("c9", "s1")] = b(true)
	if _, err := h.AnswersFromKeyed("w", foreign); err == nil {
		t.Error("a keyed assignment answering a foreign question was accepted")
	}
	swapped := full()
	delete(swapped, PairKey("c1", "s1"))
	swapped["c1"] = b(true)
	if _, err := h.AnswersFromKeyed("w", swapped); err == nil {
		t.Error("a keyed assignment with one key swapped for a foreign one was accepted")
	}
	// A grid that repeats a right key has fewer distinct names than
	// questions, so no keyed assignment can answer it.
	rep := joinHIT()
	rep.Right = append(rep.Right, rep.Right[0])
	keyed := map[string]relation.Value{PairKey("c1", "s1"): b(true), PairKey("c2", "s1"): b(false)}
	if _, err := rep.AnswersFromKeyed("w", keyed); err == nil {
		t.Error("a keyed assignment for a HIT with repeated keys was accepted")
	}
}

// TestRankPositionsMatchesSliceStable pins RankPositions to the stable
// sort by < it replaced: ties and NaNs keep question order.
func TestRankPositionsMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		scores := make([]float64, n)
		for i := range scores {
			switch rng.Intn(6) {
			case 0:
				scores[i] = math.NaN()
			case 1:
				scores[i] = float64(rng.Intn(3)) // frequent ties
			default:
				scores[i] = rng.NormFloat64() * 10
			}
		}
		// The reference: sort (position, score) pairs stably by score.
		type kv struct {
			pos   int
			score float64
		}
		ref := make([]kv, n)
		for i, s := range scores {
			ref[i] = kv{i, s}
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].score < ref[j].score })
		want := make([]int64, n)
		for rank, e := range ref {
			want[e.pos] = int64(rank)
		}

		vals := make([]relation.Value, n)
		for i, s := range scores {
			vals[i] = relation.NewFloat(s)
		}
		RankPositions(vals)
		for i := range vals {
			if vals[i].Kind() != relation.KindInt || vals[i].Int() != want[i] {
				t.Fatalf("trial %d: scores %v: position of %d = %v, want %d", trial, scores, i, vals[i], want[i])
			}
		}
	}
}
