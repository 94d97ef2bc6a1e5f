package plan

import (
	"strings"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

const testScript = `
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO of %s", companyName
  Response: Form(("CEO", String), ("Phone", String))

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)

TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo

TASK squareScore(Image pic)
RETURNS Int:
  TaskType: Rating
  Text: "Rate %s", pic
  Response: Rating(1, 5)
`

func testEnv(t *testing.T) (*qlang.Script, *relation.Catalog) {
	t.Helper()
	script, err := qlang.Parse(testScript)
	if err != nil {
		t.Fatal(err)
	}
	cat := relation.NewCatalog()
	companies := relation.NewTable("companies", relation.MustSchema(
		relation.Column{Name: "companyName", Kind: relation.KindString}))
	celebrities := relation.NewTable("celebrities", relation.MustSchema(
		relation.Column{Name: "name", Kind: relation.KindString},
		relation.Column{Name: "image", Kind: relation.KindImage}))
	spotted := relation.NewTable("spottedstars", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "image", Kind: relation.KindImage}))
	photos := relation.NewTable("photos", relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "img", Kind: relation.KindImage}))
	for _, tab := range []*relation.Table{companies, celebrities, spotted, photos} {
		if err := cat.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	return script, cat
}

func mustBuild(t *testing.T, src string) Node {
	t.Helper()
	script, cat := testEnv(t)
	stmt, err := qlang.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(stmt, script, cat)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuildQuery1(t *testing.T) {
	n := mustBuild(t, `SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies`)
	proj, ok := n.(*Project)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	if _, ok := proj.Input.(*Scan); !ok {
		t.Fatalf("input = %T", proj.Input)
	}
	s := proj.Schema()
	if s.Len() != 3 {
		t.Fatalf("schema = %v", s)
	}
	if s.Column(1).Kind != relation.KindString || s.Column(1).Name != "findCEO.CEO" {
		t.Fatalf("col1 = %+v", s.Column(1))
	}
}

func TestBuildQuery2HumanJoin(t *testing.T) {
	n := mustBuild(t, `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image)`)
	proj := n.(*Project)
	join, ok := proj.Input.(*Join)
	if !ok {
		t.Fatalf("input = %T", proj.Input)
	}
	if join.HumanTask == nil || join.HumanTask.Name != "samePerson" {
		t.Fatal("human join not detected")
	}
	if join.LeftArg.String() != "celebrities.image" || join.RightArg.String() != "spottedstars.image" {
		t.Fatalf("args = %v, %v", join.LeftArg, join.RightArg)
	}
	if len(join.Residual) != 0 {
		t.Fatalf("residual = %v", join.Residual)
	}
}

func TestBuildSwappedJoinArgs(t *testing.T) {
	n := mustBuild(t, `SELECT celebrities.name FROM celebrities, spottedstars WHERE samePerson(spottedstars.image, celebrities.image)`)
	join := n.(*Project).Input.(*Join)
	if join.HumanTask == nil {
		t.Fatal("human join not detected with swapped args")
	}
	if join.LeftArg.String() != "celebrities.image" {
		t.Fatalf("left arg = %v", join.LeftArg)
	}
}

func TestFilterPushdown(t *testing.T) {
	n := mustBuild(t, `SELECT celebrities.name FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image) AND spottedstars.id > 5 AND isCat(celebrities.image)`)
	join := n.(*Project).Input.(*Join)
	// spottedstars.id > 5 should be under the right side of the join,
	// isCat(celebrities.image) under the left.
	leftFilter, ok := join.Left.(*Filter)
	if !ok {
		t.Fatalf("left = %T; want filter pushdown", join.Left)
	}
	if !strings.Contains(leftFilter.Label(nil), "isCat") {
		t.Fatalf("left filter = %s", leftFilter.Label(nil))
	}
	rightFilter, ok := join.Right.(*Filter)
	if !ok {
		t.Fatalf("right = %T", join.Right)
	}
	if !strings.Contains(rightFilter.Label(nil), "id") {
		t.Fatalf("right filter = %s", rightFilter.Label(nil))
	}
}

func TestMultipleConjunctsStaySeparate(t *testing.T) {
	n := mustBuild(t, `SELECT img FROM photos WHERE isCat(img) AND id > 3 AND isCat(img)`)
	f := n.(*Project).Input.(*Filter)
	if len(f.Conjuncts) != 3 {
		t.Fatalf("conjuncts = %d; adaptive ordering needs them separate", len(f.Conjuncts))
	}
}

func TestOrderLimitDistinct(t *testing.T) {
	// A single bare ranking-task key builds the human-powered sort
	// node, with the LIMIT pushed down as TopK (the Limit node above
	// still enforces the row count).
	n := mustBuild(t, `SELECT DISTINCT img FROM photos ORDER BY squareScore(img) DESC LIMIT 5`)
	lim, ok := n.(*Limit)
	if !ok || lim.N != 5 {
		t.Fatalf("root = %T", n)
	}
	rk, ok := lim.Input.(*Rank)
	if !ok || !rk.Desc {
		t.Fatalf("under limit = %T", lim.Input)
	}
	if rk.TopK != 5 {
		t.Fatalf("TopK = %d, want the LIMIT pushed down", rk.TopK)
	}
	if rk.Task == nil || rk.Task.Name != "squareScore" {
		t.Fatalf("rank task = %v", rk.Task)
	}
	if rk.Compare != nil {
		t.Fatalf("squareScore declares no Compare companion, got %v", rk.Compare)
	}
	if _, ok := rk.Input.(*Distinct); !ok {
		t.Fatalf("under rank = %T", rk.Input)
	}
}

func TestOrderByMultiKeyKeepsGenericSort(t *testing.T) {
	n := mustBuild(t, `SELECT img FROM photos ORDER BY squareScore(img), img`)
	ob, ok := n.(*OrderBy)
	if !ok || len(ob.Keys) != 2 {
		t.Fatalf("root = %T; multi-key ORDER BY must stay generic", n)
	}
}

func TestAggregatePlan(t *testing.T) {
	n := mustBuild(t, `SELECT count() AS n, avg(id) FROM photos GROUP BY img`)
	agg, ok := n.(*Aggregate)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	s := agg.Schema()
	if s.Column(0).Name != "n" || s.Column(0).Kind != relation.KindInt {
		t.Fatalf("count col = %+v", s.Column(0))
	}
	if s.Column(1).Kind != relation.KindFloat {
		t.Fatalf("avg col = %+v", s.Column(1))
	}
}

func TestSelectStarPlan(t *testing.T) {
	n := mustBuild(t, `SELECT * FROM photos`)
	if _, ok := n.(*Scan); !ok {
		t.Fatalf("SELECT * should plan to a bare scan, got %T", n)
	}
}

func TestRatingCallTypesAsFloat(t *testing.T) {
	n := mustBuild(t, `SELECT squareScore(img) FROM photos`)
	if k := n.Schema().Column(0).Kind; k != relation.KindFloat {
		t.Fatalf("rating call kind = %v (mean over assignments)", k)
	}
}

func TestBuildErrors(t *testing.T) {
	script, cat := testEnv(t)
	bad := []string{
		`SELECT x FROM nosuch`,                          // unknown table
		`SELECT nosuchcol FROM photos`,                  // unknown column
		`SELECT img FROM photos WHERE nosuchtask(img)`,  // unknown task
		`SELECT image FROM celebrities, spottedstars`,   // ambiguous column
		`SELECT img FROM photos p, photos p`,            // duplicate alias
		`SELECT findCEO(img, img) FROM photos`,          // arity
		`SELECT findCEO(img).Nope FROM photos`,          // unknown field
		`SELECT photos.img FROM photos ORDER BY nosuch`, // bad order key
		`SELECT zz.img FROM photos`,                     // unknown alias
		`SELECT min(id, img) FROM photos`,               // min arity
	}
	for _, src := range bad {
		stmt, err := qlang.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Build(stmt, script, cat); err == nil {
			t.Errorf("Build(%q): expected error", src)
		}
	}
}

func TestExplainShape(t *testing.T) {
	n := mustBuild(t, `SELECT celebrities.name FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image) LIMIT 3`)
	out := Explain(n)
	wantOrder := []string{"Limit(3)", "Project", "HumanJoin", "Scan(celebrities)", "Scan(spottedstars)"}
	pos := -1
	for _, w := range wantOrder {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("explain missing %q:\n%s", w, out)
		}
		if i < pos {
			t.Fatalf("explain order wrong at %q:\n%s", w, out)
		}
		pos = i
	}
}

func TestWalkVisitsAll(t *testing.T) {
	n := mustBuild(t, `SELECT celebrities.name FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image)`)
	count := 0
	Walk(n, func(Node) { count++ })
	if count != 4 { // project, join, scan, scan
		t.Fatalf("walk visited %d nodes", count)
	}
}

func TestTypeOfExported(t *testing.T) {
	script, _ := testEnv(t)
	schema := relation.MustSchema(relation.Column{Name: "img", Kind: relation.KindImage})
	k, err := TypeOf(&qlang.Call{Name: "isCat", Args: []qlang.Expr{&qlang.ColumnRef{Name: "img"}}}, schema, script)
	if err != nil || k != relation.KindBool {
		t.Fatalf("TypeOf = %v err=%v", k, err)
	}
}
