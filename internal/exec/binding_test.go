package exec

import (
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// TestArgErrorPostsNothing: a tuple whose second call argument fails to
// evaluate must not submit its first call either — otherwise that call's
// HIT is posted and paid for while nothing ever reads its answer.
func TestArgErrorPostsNothing(t *testing.T) {
	r := newExecRig(t, 0.99)
	r.addTable(t, "companies",
		[]relation.Column{{Name: "companyName", Kind: relation.KindString}, {Name: "n", Kind: relation.KindInt}},
		[]relation.Value{relation.NewString("Acme"), relation.NewInt(0)},
	)
	q, err := Start(mustPlan(t, r, `SELECT findCEO(companyName).CEO, squareScore(1 / n) FROM companies`),
		Config{Mgr: r.mgr, Script: r.script})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-q.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("query stuck")
	}
	errs := q.Errors()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "division by zero") {
		t.Fatalf("errors = %v, want one division by zero", errs)
	}
	for _, task := range []string{"findceo", "squarescore"} {
		if s := r.mgr.StatsFor(task); s.Submitted != 0 || s.HITsPosted != 0 {
			t.Errorf("%s: submitted %d, posted %d HITs; want 0 and 0", task, s.Submitted, s.HITsPosted)
		}
	}
	if spent := r.mgr.Account().Spent(); spent != 0 {
		t.Errorf("spent %v, want 0", spent)
	}
}

// TestCallDedupePerOperator pins call-site binding on every operator
// that resolves human calls: each distinct invocation is requested once
// per tuple, however often its expressions mention it (field
// projections included), and POSSIBLY still asks for one assignment.
func TestCallDedupePerOperator(t *testing.T) {
	cases := []struct {
		name      string
		query     string
		cfg       Config
		submitted map[string]int64 // task → requests for the 4 input tuples
		spent     int64            // total cents; 0 skips the check
	}{
		{"filter", `SELECT img FROM photos WHERE findCEO(img).CEO != findCEO(img).Phone AND (isCat(img) OR isCat(img))`,
			Config{}, map[string]int64{"findceo": 4, "iscat": 4}, 0},
		{"filter POSSIBLY", `SELECT img FROM photos WHERE POSSIBLY (isCat(img) OR NOT isCat(img))`,
			Config{}, map[string]int64{"iscat": 4}, 4},
		{"grouped filter", `SELECT img FROM photos WHERE isCat(img) AND isOutdoor(img) AND NOT isCat(img)`,
			Config{GroupFilters: true}, map[string]int64{"iscat": 4, "isoutdoor": 4}, 0},
		{"project", `SELECT findCEO(img).CEO, findCEO(img).Phone, findCEO(img).CEO AS again FROM photos`,
			Config{}, map[string]int64{"findceo": 4}, 0},
		{"order by", `SELECT img FROM photos ORDER BY squareScore(img), squareScore(img) DESC`,
			Config{}, map[string]int64{"squarescore": 4}, 0},
		{"aggregate", `SELECT grp, sum(squareScore(img)) AS s, max(squareScore(img)) AS m FROM photos GROUP BY grp`,
			Config{}, map[string]int64{"squarescore": 4}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newExecRig(t, 0.99)
			r.addTable(t, "photos",
				[]relation.Column{{Name: "grp", Kind: relation.KindString}, {Name: "img", Kind: relation.KindImage}},
				[]relation.Value{relation.NewString("a"), relation.NewImage("cat-out-1.png")},
				[]relation.Value{relation.NewString("a"), relation.NewImage("cat-in-2.png")},
				[]relation.Value{relation.NewString("b"), relation.NewImage("dog-out-3.png")},
				[]relation.Value{relation.NewString("b"), relation.NewImage("dog-in-4.png")},
			)
			r.run(t, tc.query, tc.cfg)
			for task, want := range tc.submitted {
				if got := r.mgr.StatsFor(task).Submitted; got != want {
					t.Errorf("%s requests = %d, want %d", task, got, want)
				}
			}
			if spent := int64(r.mgr.Account().Spent()); tc.spent > 0 && spent != tc.spent {
				t.Errorf("spent %d cents, want %d (one assignment per request)", spent, tc.spent)
			}
		})
	}
}

// TestFitsKeepsCallSharing: which calls of an operator share a site
// depends on their argument values, so a program runs another query of
// its shape only when the literals inside call arguments are equal
// exactly where the planned ones are, in whichever call of a site they
// sit.
func TestFitsKeepsCallSharing(t *testing.T) {
	r := newExecRig(t, 0.99)
	r.addTable(t, "companies", []relation.Column{{Name: "companyName", Kind: relation.KindString}})
	s := relation.NewString
	cases := []struct {
		query string
		vals  []relation.Value
		fits  bool
	}{
		{`SELECT findCEO('Q').CEO, findCEO('Q').Phone FROM companies WHERE companyName >= 'P'`, []relation.Value{s("A"), s("A"), s("S")}, true},
		{`SELECT findCEO('Q').CEO, findCEO('Q').Phone FROM companies WHERE companyName >= 'P'`, []relation.Value{s("A"), s("B"), s("S")}, false},
		{`SELECT findCEO('A').CEO, findCEO('B').Phone FROM companies WHERE companyName >= 'P'`, []relation.Value{s("C"), s("D"), s("C")}, true},
		{`SELECT findCEO('A').CEO, findCEO('B').Phone FROM companies WHERE companyName >= 'P'`, []relation.Value{s("C"), s("C"), s("S")}, false},
		{`SELECT findCEO('1').CEO, findCEO('1').Phone FROM companies`, []relation.Value{s("1"), relation.NewInt(1)}, false},
		{`SELECT companyName FROM companies WHERE findCEO('Q').CEO = findCEO('Q').Phone`, []relation.Value{s("A"), s("B")}, false},
	}
	for _, tc := range cases {
		stmt, err := qlang.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		node, err := plan.Build(stmt, r.script, r.catalog)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(node, r.script, qlang.CollectStmtLiterals(stmt))
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Fits(tc.vals); got != tc.fits {
			t.Errorf("%s: Fits(%v) = %v, want %v", tc.query, tc.vals, got, tc.fits)
		}
	}
}
