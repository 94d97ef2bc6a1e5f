package hit

import (
	"net/url"
	"strings"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// compileOrderHIT builds a three-item Order HIT, the shape the ranking
// subsystem's comparison batches post.
func compileOrderHIT() *HIT {
	return &HIT{
		ID:          "HIT0001",
		Task:        "orderItems",
		Type:        qlang.TaskRank,
		Title:       "orderItems",
		Question:    "Order the items.",
		Response:    qlang.Response{Kind: qlang.ResponseOrder},
		Assignments: 1,
		Items: []Item{
			{Args: []relation.Value{relation.NewString("alpha")}},
			{Args: []relation.Value{relation.NewString("beta")}},
			{Args: []relation.Value{relation.NewString("gamma")}},
		},
	}
}

func TestOrderCompileRendersSelects(t *testing.T) {
	h := compileOrderHIT()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	html := Compile(h)
	// One position selector per item, each offering positions 1..n.
	if got := strings.Count(html, "<select"); got != 3 {
		t.Fatalf("selects = %d, want 3", got)
	}
	if !strings.Contains(html, `<option value="3">3</option>`) {
		t.Fatal("missing position option 3")
	}
	if strings.Contains(html, `<option value="4">`) {
		t.Fatal("option beyond item count")
	}
}

func TestOrderParseFormRejectsMalformedPermutations(t *testing.T) {
	h := compileOrderHIT()
	set := func(vals ...string) url.Values {
		form := url.Values{}
		form.Set("hit", h.ID)
		for i, v := range vals {
			form.Set(inputName("o", i), v)
		}
		return form
	}
	cases := []struct {
		name string
		form url.Values
	}{
		{"duplicate position", set("1", "1", "2")},
		{"position zero", set("0", "1", "2")},
		{"position beyond n", set("1", "2", "4")},
		{"partial order", set("1", "2")},
		{"not a number", set("first", "2", "3")},
		{"empty submission", set()},
	}
	for _, tc := range cases {
		if _, err := ParseForm(h, tc.form, "w1"); err == nil {
			t.Errorf("%s: ParseForm accepted an invalid permutation", tc.name)
		}
	}
}

func TestOrderHITValidateNoItems(t *testing.T) {
	h := compileOrderHIT()
	h.Items = nil
	if err := h.Validate(); err == nil {
		t.Fatal("Validate accepted an Order HIT with no items")
	}
}
