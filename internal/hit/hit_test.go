package hit

import (
	"net/url"
	"strings"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

func questionHIT() *HIT {
	return &HIT{
		ID:       "HIT1",
		Task:     "findCEO",
		Type:     qlang.TaskQuestion,
		Title:    "Find the CEO",
		Question: "Find the CEO and phone for each company below.",
		Response: qlang.Response{
			Kind: qlang.ResponseForm,
			Fields: []qlang.FormField{
				{Label: "CEO", Kind: relation.KindString},
				{Label: "Phone", Kind: relation.KindString},
			},
		},
		Items: []Item{
			{Args: []relation.Value{relation.NewString("Acme")}},
			{Args: []relation.Value{relation.NewString("Globex")}},
		},
		RewardCents: 3,
		Assignments: 2,
	}
}

func joinHIT() *HIT {
	return &HIT{
		ID:       "HIT2",
		Task:     "samePerson",
		Type:     qlang.TaskJoinPredicate,
		Title:    "Match celebrities",
		Question: "Match pictures.",
		Response: qlang.Response{
			Kind:      qlang.ResponseJoinColumns,
			LeftLabel: "Celebrity", RightLabel: "Spotted Star",
			LeftParam: "celebs", RightParam: "spotted",
		},
		Left: []Item{
			{Args: []relation.Value{relation.NewImage("c1.png")}},
			{Args: []relation.Value{relation.NewImage("c2.png")}},
		},
		Right: []Item{
			{Args: []relation.Value{relation.NewImage("s1.png")}},
		},
		RewardCents: 2,
		Assignments: 3,
	}
}

func TestQuestionCount(t *testing.T) {
	if joinHIT().QuestionCount() != 2 || questionHIT().QuestionCount() != 2 {
		t.Error("question counts wrong")
	}
}

func TestValidate(t *testing.T) {
	good := questionHIT()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := joinHIT().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*HIT){
		func(h *HIT) { h.ID = "" },
		func(h *HIT) { h.Task = "" },
		func(h *HIT) { h.Assignments = 0 },
		func(h *HIT) { h.RewardCents = -1 },
		func(h *HIT) { h.Items = nil },
	}
	for i, mutate := range cases {
		h := questionHIT()
		mutate(h)
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	j := joinHIT()
	j.Right = nil
	if err := j.Validate(); err == nil {
		t.Error("join without right column must fail")
	}
	j2 := joinHIT()
	j2.Items = []Item{{}}
	if err := j2.Validate(); err == nil {
		t.Error("join with stray items must fail")
	}
}

func TestRenderText(t *testing.T) {
	params := []qlang.Param{{Name: "companyName", Kind: relation.KindString}}
	got := RenderText("Find the CEO of %s.", []string{"companyName"}, params, []relation.Value{relation.NewString("Acme")})
	if got != "Find the CEO of Acme." {
		t.Errorf("RenderText = %q", got)
	}
	// Image args render their reference, not the img: prefix.
	params2 := []qlang.Param{{Name: "pic", Kind: relation.KindImage}}
	got2 := RenderText("Look at %s.", []string{"pic"}, params2, []relation.Value{relation.NewImage("x.png")})
	if got2 != "Look at x.png." {
		t.Errorf("RenderText image = %q", got2)
	}
	// Unknown args degrade to "?" rather than panicking.
	got3 := RenderText("%s!", []string{"missing"}, params, []relation.Value{relation.NewString("Acme")})
	if got3 != "?!" {
		t.Errorf("RenderText missing = %q", got3)
	}
	// No placeholders: template returned untouched.
	if RenderText("static", nil, nil, nil) != "static" {
		t.Error("static template changed")
	}
	// List args join with commas.
	params4 := []qlang.Param{{Name: "pics", Kind: relation.KindImage, IsList: true}}
	got4 := RenderText("%s", []string{"pics"}, params4,
		[]relation.Value{relation.NewList(relation.NewImage("a.png"), relation.NewImage("b.png"))})
	if got4 != "a.png, b.png" {
		t.Errorf("RenderText list = %q", got4)
	}
}

func TestCompileFormHTML(t *testing.T) {
	htmlStr := Compile(questionHIT())
	for _, want := range []string{
		"Find the CEO and phone",
		"Acme", "Globex",
		"CEO", "Phone",
		"type=\"text\"",
		"Reward: $0.03",
		"2 assignment(s)",
		"data-hit=\"HIT1\"",
	} {
		if !strings.Contains(htmlStr, want) {
			t.Errorf("compiled HTML missing %q", want)
		}
	}
}

func TestCompileJoinHTML(t *testing.T) {
	htmlStr := Compile(joinHIT())
	for _, want := range []string{
		"Celebrity", "Spotted Star",
		"<img src=\"c1.png\"", "<img src=\"s1.png\"",
		"type=\"checkbox\"",
	} {
		if !strings.Contains(htmlStr, want) {
			t.Errorf("join HTML missing %q", want)
		}
	}
}

func TestCompileEscapesHTML(t *testing.T) {
	h := questionHIT()
	h.Question = `<script>alert("x")</script>`
	h.Items[0].Args[0] = relation.NewString("<b>bold</b>")
	htmlStr := Compile(h)
	if strings.Contains(htmlStr, "<script>") || strings.Contains(htmlStr, "<b>bold</b>") {
		t.Error("user data must be HTML-escaped")
	}
}

func TestFormRoundTripForm(t *testing.T) {
	h := questionHIT()
	want := Answers{WorkerID: "w1", Values: []relation.Value{
		relation.NewTuple(
			relation.Field{Name: "CEO", Value: relation.NewString("Ada Lovelace")},
			relation.Field{Name: "Phone", Value: relation.NewString("555-0100")},
		),
		relation.NewTuple(
			relation.Field{Name: "CEO", Value: relation.NewString("Grace Hopper")},
			relation.Field{Name: "Phone", Value: relation.NewString("555-0101")},
		),
	}}
	form := EncodeAnswers(h, want)
	got, err := ParseForm(h, form, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("sheet = %v", got.Values)
	}
	for i, v := range want.Values {
		if !got.Values[i].Equal(v) {
			t.Errorf("question %d: %v != %v", i, got.Values[i], v)
		}
	}
}

func TestFormRoundTripJoin(t *testing.T) {
	h := joinHIT()
	// Cells are row-major: (c1, s1) is question 0, (c2, s1) question 1.
	want := Answers{Values: []relation.Value{relation.NewBool(true), relation.NewBool(false)}}
	form := EncodeAnswers(h, want)
	if form.Get(inputName("m", 0)) != "match" || form.Has(inputName("m", 1)) {
		t.Fatalf("form = %v", form)
	}
	got, err := ParseForm(h, form, "w")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Values[0].Bool() {
		t.Error("matched pair lost")
	}
	if got.Values[1].Bool() {
		t.Error("unmatched pair must decode false")
	}
}

func ratingHIT() *HIT {
	return &HIT{
		ID: "HR", Task: "score", Type: qlang.TaskRating,
		Question: "Rate each.",
		Response: qlang.Response{Kind: qlang.ResponseRating, ScaleMin: 1, ScaleMax: 5},
		Items: []Item{
			{Args: []relation.Value{relation.NewImage("a.png")}},
			{Args: []relation.Value{relation.NewImage("b.png")}},
		},
		RewardCents: 1, Assignments: 1,
	}
}

func TestFormRoundTripRating(t *testing.T) {
	h := ratingHIT()
	want := Answers{Values: []relation.Value{relation.NewInt(4), relation.NewInt(1)}}
	got, err := ParseForm(h, EncodeAnswers(h, want), "w")
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[0].Int() != 4 || got.Values[1].Int() != 1 {
		t.Errorf("ratings = %v", got.Values)
	}
}

func TestParseFormRatingOutOfScale(t *testing.T) {
	h := ratingHIT()
	form := url.Values{}
	form.Set("r_0", "9")
	form.Set("r_1", "1")
	if _, err := ParseForm(h, form, "w"); err == nil {
		t.Error("out-of-scale rating must error")
	}
}

func orderHIT(n int) *HIT {
	h := &HIT{
		ID: "HO", Task: "rank", Type: qlang.TaskRank,
		Question:    "Order these.",
		Response:    qlang.Response{Kind: qlang.ResponseOrder},
		RewardCents: 1, Assignments: 1,
	}
	for i := 0; i < n; i++ {
		h.Items = append(h.Items, Item{Args: []relation.Value{relation.NewInt(int64(i))}})
	}
	return h
}

func TestFormRoundTripOrder(t *testing.T) {
	h := orderHIT(3)
	want := Answers{Values: []relation.Value{relation.NewInt(2), relation.NewInt(0), relation.NewInt(1)}}
	got, err := ParseForm(h, EncodeAnswers(h, want), "w")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Values {
		if got.Values[i].Int() != v.Int() {
			t.Errorf("order %d = %v, want %v", i, got.Values[i], v)
		}
	}
}

func TestParseFormOrderDuplicate(t *testing.T) {
	h := orderHIT(2)
	form := url.Values{}
	form.Set("o_0", "1")
	form.Set("o_1", "1")
	if _, err := ParseForm(h, form, "w"); err == nil {
		t.Error("duplicate order positions must error")
	}
}

func TestFormRoundTripYesNoAndChoice(t *testing.T) {
	yn := &HIT{
		ID: "HY", Task: "isCat", Type: qlang.TaskFilter,
		Question: "Cat?", Response: qlang.Response{Kind: qlang.ResponseYesNo},
		Items:       []Item{{Args: []relation.Value{relation.NewImage("x.png")}}},
		RewardCents: 1, Assignments: 1,
	}
	want := Answers{Values: []relation.Value{relation.NewBool(true)}}
	got, err := ParseForm(yn, EncodeAnswers(yn, want), "w")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Values[0].Bool() {
		t.Error("yes lost")
	}
	// Unanswered yes/no is an error, not a default.
	if _, err := ParseForm(yn, url.Values{}, "w"); err == nil {
		t.Error("unanswered yes/no must error")
	}

	ch := &HIT{
		ID: "HC", Task: "sentiment", Type: qlang.TaskQuestion,
		Question:    "Sentiment?",
		Response:    qlang.Response{Kind: qlang.ResponseChoice, Options: []string{"pos", "neg"}},
		Items:       []Item{{Args: []relation.Value{relation.NewString("great!")}}},
		RewardCents: 1, Assignments: 1,
	}
	wantC := Answers{Values: []relation.Value{relation.NewString("pos")}}
	gotC, err := ParseForm(ch, EncodeAnswers(ch, wantC), "w")
	if err != nil {
		t.Fatal(err)
	}
	if gotC.Values[0].Str() != "pos" {
		t.Errorf("choice = %v", gotC.Values[0])
	}
	bad := url.Values{}
	bad.Set("c_0", "meh")
	if _, err := ParseForm(ch, bad, "w"); err == nil {
		t.Error("invalid choice must error")
	}
}

func TestSingleFieldFormDecodesScalar(t *testing.T) {
	h := &HIT{
		ID: "HS", Task: "caption", Type: qlang.TaskGenerative,
		Question: "Caption this.",
		Response: qlang.Response{Kind: qlang.ResponseForm,
			Fields: []qlang.FormField{{Label: "Caption", Kind: relation.KindString}}},
		Items:       []Item{{Args: []relation.Value{relation.NewImage("k.png")}}},
		RewardCents: 1, Assignments: 1,
	}
	want := Answers{Values: []relation.Value{relation.NewString("a cat")}}
	got, err := ParseForm(h, EncodeAnswers(h, want), "w")
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[0].Kind() != relation.KindString || got.Values[0].Str() != "a cat" {
		t.Errorf("scalar form = %v", got.Values[0])
	}
}

func TestEmptyFormFieldDecodesNull(t *testing.T) {
	h := questionHIT()
	form := url.Values{}
	got, err := ParseForm(h, form, "w")
	if err != nil {
		t.Fatal(err)
	}
	v := got.Values[0]
	if !v.Field("CEO").IsNull() {
		t.Errorf("empty input should be NULL, got %v", v)
	}
}
