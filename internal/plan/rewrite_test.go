package plan

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

func buildPlan(t *testing.T, query string) (Node, *qlang.SelectStmt) {
	t.Helper()
	script, cat := testEnv(t)
	stmt, err := qlang.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(stmt, script, cat)
	if err != nil {
		t.Fatal(err)
	}
	return n, stmt
}

// TestCloneIsDeepAndRecordsLiterals: one execution's copy of a shared
// plan is a bound view. The plan holds the statement's own literals, so
// binding them by identity relabels the Filter beneath OrderBy and
// Limit; Walk over the view visits the planned nodes, and neither the
// plan nor an empty binding sees the bound value.
func TestCloneIsDeepAndRecordsLiterals(t *testing.T) {
	n, stmt := buildPlan(t, `SELECT id FROM spottedstars WHERE id < 10 ORDER BY id LIMIT 3`)
	lits := qlang.CollectStmtLiterals(stmt)
	if len(lits) != 1 {
		t.Fatalf("statement literals = %d, want 1", len(lits))
	}
	planned := Explain(n)
	view := Bind(n, literalMap{lits[0]: relation.NewInt(42)})
	if got, want := Explain(view), strings.Replace(planned, "< 10", "< 42", 1); got != want {
		t.Fatalf("bound explain (Build must share literal pointers with the stmt):\n%s\nwant\n%s", got, want)
	}
	if Explain(n) != planned || Explain(Bind(n, literalMap{})) != planned {
		t.Fatalf("binding changed the planned labels:\n%s", Explain(n))
	}
	var planNodes, viewNodes []Node
	Walk(n, func(m Node) { planNodes = append(planNodes, m) })
	Walk(view, func(m Node) { viewNodes = append(viewNodes, m) })
	if !reflect.DeepEqual(viewNodes, planNodes) {
		t.Fatalf("Walk over a view visited %v, want the planned nodes %v", viewNodes, planNodes)
	}
}

// TestCloneSubstitutesLiterals: a view bound with another value for the
// statement's literal prints that value, and the plan keeps its own.
func TestCloneSubstitutesLiterals(t *testing.T) {
	n, stmt := buildPlan(t, `SELECT id FROM spottedstars WHERE id < 10`)
	lits := qlang.CollectStmtLiterals(stmt)
	view := Bind(n, literalMap{lits[0]: relation.NewInt(42)})
	if got := Explain(view); !strings.Contains(got, "42") || strings.Contains(got, "10") {
		t.Fatalf("substituted view:\n%s", got)
	}
	if got := Explain(n); !strings.Contains(got, "10") || strings.Contains(got, "42") {
		t.Fatalf("original plan mutated:\n%s", got)
	}
}

// TestApplyPreFiltersLeavesTemplate: the rewrite copies the nodes above
// a wrapped input, points each PreFilter at its copied join, and leaves
// the plan it was given as it was.
func TestApplyPreFiltersLeavesTemplate(t *testing.T) {
	script, cat := preFilterEnv(t, 3, 3)
	n := buildJoinPlan(t, script, cat)
	before := Explain(n)
	wrap := func(_, _ *qlang.TaskDef, _, _ int) PreFilterDecision {
		return PreFilterDecision{Left: true, Right: true}
	}
	applied := ApplyPreFilters(n, script, wrap)
	if Explain(n) != before {
		t.Fatalf("the template changed:\n%s", Explain(n))
	}
	var j *Join
	var pfs []*PreFilter
	Walk(applied, func(m Node) {
		switch v := m.(type) {
		case *Join:
			j = v
		case *PreFilter:
			pfs = append(pfs, v)
		}
	})
	if len(pfs) != 2 {
		t.Fatalf("pre-filters applied = %d, want 2:\n%s", len(pfs), Explain(applied))
	}
	for _, pf := range pfs {
		if pf.Join != j {
			t.Fatalf("PreFilter.Join points outside the rewritten plan (got %p, want %p)", pf.Join, j)
		}
	}
	if same := ApplyPreFilters(n, script, func(_, _ *qlang.TaskDef, _, _ int) PreFilterDecision {
		return PreFilterDecision{}
	}); same != n {
		t.Fatal("a rewrite that wrapped nothing copied the plan")
	}
}

// literalMap binds literals by identity.
type literalMap map[*qlang.Literal]relation.Value

func (m literalMap) Literal(l *qlang.Literal) (relation.Value, bool) {
	v, ok := m[l]
	return v, ok
}

func TestPushdownLimitThroughProject(t *testing.T) {
	n, _ := buildPlan(t, `SELECT id FROM spottedstars LIMIT 3`)
	out := Pushdown(n)
	p, ok := out.(*Project)
	if !ok {
		t.Fatalf("root after pushdown = %T, want *Project:\n%s", out, Explain(out))
	}
	l, ok := p.Input.(*Limit)
	if !ok || l.N != 3 {
		t.Fatalf("limit not pushed below projection:\n%s", Explain(out))
	}
}

func TestPushdownKeepsLimitAboveCallProject(t *testing.T) {
	n, _ := buildPlan(t, `SELECT findCEO(companyName).CEO FROM companies LIMIT 2`)
	out := Pushdown(n)
	if _, ok := out.(*Limit); !ok {
		t.Fatalf("call-bearing projection must stay below the limit:\n%s", Explain(out))
	}
}

func TestPushdownSplitsSingleSideResiduals(t *testing.T) {
	n, _ := buildPlan(t, `SELECT celebrities.name FROM celebrities, spottedstars WHERE celebrities.name = 'x' AND spottedstars.id < 5 AND samePerson(celebrities.image, spottedstars.image)`)
	before := Explain(n)
	out := Pushdown(n)
	var join *Join
	Walk(out, func(m Node) {
		if j, ok := m.(*Join); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatalf("no join in plan:\n%s", before)
	}
	lf, lok := join.Left.(*Filter)
	rf, rok := join.Right.(*Filter)
	if !lok || !rok {
		t.Fatalf("single-side conjuncts not pushed into both inputs:\n%s", Explain(out))
	}
	if got := lf.Conjuncts[0].String(); !strings.Contains(got, "celebrities.name") {
		t.Errorf("left pushed conjunct = %s", got)
	}
	if got := rf.Conjuncts[0].String(); !strings.Contains(got, "spottedstars.id") {
		t.Errorf("right pushed conjunct = %s", got)
	}
}
