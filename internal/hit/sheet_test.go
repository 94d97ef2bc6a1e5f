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
			{Task: "isCat", Args: []relation.Value{relation.NewImage("x.png")}},
			{Task: "isOutdoor", Args: []relation.Value{relation.NewImage("x.png")}},
		},
		RewardCents: 1, Assignments: 1,
	}
}

// gridHIT is a 2×3 JoinColumns HIT.
func gridHIT() *HIT {
	h := joinHIT()
	h.Right = append(h.Right,
		Item{Args: []relation.Value{relation.NewImage("s2.png")}},
		Item{Args: []relation.Value{relation.NewImage("s3.png")}})
	return h
}

func sheetOf(vals ...relation.Value) Answers { return Answers{WorkerID: "w7", Values: vals} }

// TestSheetWireRoundTrip: every HIT kind's full sheet passes
// CheckAnswers and comes back from its form unchanged, each question at
// its own position.
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
		back, err := ParseForm(tc.h, EncodeAnswers(tc.h, tc.sheet), tc.sheet.WorkerID)
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
	// Cell (l, r) of a grid is question l*len(Right)+r.
	h := gridHIT()
	form := EncodeAnswers(h, sheetOf(b(false), b(false), b(false), b(false), b(true), b(false)))
	if form.Get(inputName("m", 4)) != "match" || len(form) != 2 {
		t.Errorf("cell (1, 1) is not question 4: %v", form)
	}
}

func TestSheetRejectsMalformed(t *testing.T) {
	h := gridHIT()
	for _, n := range []int{0, 5, 7} {
		sheet := Answers{Values: make([]relation.Value, n)}
		if err := h.CheckAnswers(sheet); err == nil {
			t.Errorf("CheckAnswers accepted %d answers for 6 questions", n)
		}
	}
}

// TestCheckValues holds a sheet from outside the engine to the values
// the HIT's form could produce: each HIT kind accepts what ParseForm
// decodes from its form and refuses a value of the wrong kind, out of
// scale, a repeated or missing order position, an unlisted choice, and
// a form field of the wrong kind or name.
func TestCheckValues(t *testing.T) {
	b, i, str := relation.NewBool, relation.NewInt, relation.NewString
	tuple := func(ceo, phone relation.Value) relation.Value {
		return relation.NewTuple(relation.Field{Name: "CEO", Value: ceo}, relation.Field{Name: "Phone", Value: phone})
	}
	choice := &HIT{
		ID: "HC", Task: "sentiment", Type: qlang.TaskQuestion, Question: "Sentiment?",
		Response:    qlang.Response{Kind: qlang.ResponseChoice, Options: []string{"pos", "neg"}},
		Items:       []Item{{Args: []relation.Value{str("great!")}}},
		RewardCents: 1, Assignments: 1,
	}
	oneField := questionHIT()
	oneField.Response.Fields = oneField.Response.Fields[:1]
	cases := []struct {
		name      string
		h         *HIT
		good, bad []Answers
	}{
		{"yes/no", groupHIT(),
			[]Answers{sheetOf(b(true), b(false))},
			[]Answers{sheetOf(str("no"), i(7)), sheetOf(b(true), relation.Null), sheetOf(b(true))}},
		{"grid", gridHIT(),
			[]Answers{sheetOf(b(false), b(true), b(false), b(true), b(true), b(false))},
			[]Answers{sheetOf(b(false), b(true), b(false), b(true), i(1), b(false))}},
		{"rating", ratingHIT(),
			[]Answers{sheetOf(i(1), i(5))},
			[]Answers{sheetOf(i(0), i(5)), sheetOf(i(1), i(6)), sheetOf(i(1), relation.NewFloat(2))}},
		{"order", orderHIT(3),
			[]Answers{sheetOf(i(2), i(0), i(1))},
			[]Answers{sheetOf(i(0), i(0), i(1)), sheetOf(i(1), i(2), i(3)), sheetOf(i(-1), i(0), i(1)), sheetOf(b(false), i(1), i(2))}},
		{"choice", choice,
			[]Answers{sheetOf(str("neg"))},
			[]Answers{sheetOf(str("meh")), sheetOf(relation.NewImage("pos")), sheetOf(relation.Null)}},
		{"form", questionHIT(),
			[]Answers{sheetOf(tuple(str("Ada"), str("555")), tuple(relation.Null, relation.Null))},
			[]Answers{
				sheetOf(tuple(str("Ada"), i(555)), tuple(str("Bo"), str("1"))),
				sheetOf(str("Ada"), tuple(str("Bo"), str("1"))),
				sheetOf(relation.NewTuple(relation.Field{Name: "CEO", Value: str("Ada")}), tuple(str("Bo"), str("1"))),
				sheetOf(relation.NewTuple(relation.Field{Name: "ceo", Value: str("Ada")}, relation.Field{Name: "Phone", Value: str("1")}), tuple(str("Bo"), str("1"))),
			}},
		{"one-field form", oneField,
			[]Answers{sheetOf(str("Ada"), relation.Null)},
			[]Answers{sheetOf(str("Ada"), b(true)), sheetOf(tuple(str("Ada"), relation.Null), str("Bo"))}},
	}
	for _, tc := range cases {
		for _, sheet := range tc.good {
			if err := tc.h.CheckValues(sheet); err != nil {
				t.Errorf("%s: %v refused: %v", tc.name, sheet.Values, err)
			}
			// A sheet the form carries decodes to itself and passes.
			back, err := ParseForm(tc.h, EncodeAnswers(tc.h, sheet), sheet.WorkerID)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := tc.h.CheckValues(back); err != nil {
				t.Errorf("%s: ParseForm's %v refused: %v", tc.name, back.Values, err)
			}
		}
		for _, sheet := range tc.bad {
			if err := tc.h.CheckValues(sheet); err == nil {
				t.Errorf("%s: %v accepted", tc.name, sheet.Values)
			}
		}
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
