package qlang

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
)

// The paper's Query 1 and Query 2, verbatim modulo quoting.
const query1 = `
SELECT companyName, findCEO(companyName).CEO,
       findCEO(companyName).Phone
FROM companies
`

const query2 = `
SELECT celebrities.name, spottedstars.id
FROM celebrities, spottedstars
WHERE samePerson(celebrities.image, spottedstars.image)
`

const task1 = `
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO and the CEO's phone number for the company %s", companyName
  Response: Form(("CEO", String), ("Phone", String))
`

const task2 = `
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Drag a picture of any Celebrity in the left column to their matching picture."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
`

func TestParsePaperQuery1(t *testing.T) {
	q, err := ParseQuery(query1)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 3 {
		t.Fatalf("items = %d", len(q.Items))
	}
	if _, ok := q.Items[0].Expr.(*ColumnRef); !ok {
		t.Errorf("item 0 should be a column ref: %T", q.Items[0].Expr)
	}
	call, ok := q.Items[1].Expr.(*Call)
	if !ok {
		t.Fatalf("item 1 should be a call: %T", q.Items[1].Expr)
	}
	if call.Name != "findCEO" || call.Field != "CEO" || len(call.Args) != 1 {
		t.Errorf("call = %v", call)
	}
	call2 := q.Items[2].Expr.(*Call)
	if call2.Field != "Phone" {
		t.Errorf("item 2 field = %q", call2.Field)
	}
	if len(q.From) != 1 || q.From[0].Name != "companies" {
		t.Errorf("from = %v", q.From)
	}
	if q.Where != nil || q.Limit != -1 {
		t.Error("query 1 has no WHERE or LIMIT")
	}
}

func TestParsePaperQuery2(t *testing.T) {
	q, err := ParseQuery(query2)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 2 {
		t.Fatalf("from = %v", q.From)
	}
	call, ok := q.Where.(*Call)
	if !ok {
		t.Fatalf("where should be a call: %T", q.Where)
	}
	if call.Name != "samePerson" || len(call.Args) != 2 {
		t.Errorf("where call = %v", call)
	}
	arg0 := call.Args[0].(*ColumnRef)
	if arg0.Table != "celebrities" || arg0.Name != "image" {
		t.Errorf("arg0 = %v", arg0)
	}
}

func TestParsePaperTask1(t *testing.T) {
	task, err := ParseTaskDef(task1)
	if err != nil {
		t.Fatal(err)
	}
	if task.Name != "findCEO" || task.Type != TaskQuestion {
		t.Errorf("task = %v %v", task.Name, task.Type)
	}
	if len(task.Params) != 1 || task.Params[0].Name != "companyName" || task.Params[0].Kind != relation.KindString || task.Params[0].IsList {
		t.Errorf("params = %v", task.Params)
	}
	if !task.ReturnsTuple() || len(task.Returns) != 2 {
		t.Errorf("returns = %v", task.Returns)
	}
	if task.Returns[0].Name != "CEO" || task.Returns[1].Name != "Phone" {
		t.Errorf("return names = %v", task.Returns)
	}
	if !strings.Contains(task.Text, "%s") || len(task.TextArgs) != 1 || task.TextArgs[0] != "companyName" {
		t.Errorf("text = %q args=%v", task.Text, task.TextArgs)
	}
	if task.Response.Kind != ResponseForm || len(task.Response.Fields) != 2 {
		t.Errorf("response = %v", task.Response)
	}
	if task.Response.Fields[0].Label != "CEO" || task.Response.Fields[0].Kind != relation.KindString {
		t.Errorf("field 0 = %v", task.Response.Fields[0])
	}
}

// TestTaskRejectsRepeatedFieldNames: a tuple answer's fields are found
// by exact name and a Form's labels name its inputs, so a task that
// repeats either is refused; names differing only in case are distinct.
func TestTaskRejectsRepeatedFieldNames(t *testing.T) {
	const src = `
TASK findCEO(String companyName)
RETURNS (String %s, String %s):
  TaskType: Question
  Text: "Find the CEO of %%s", companyName
  Response: Form(("%s", String), ("%s", String))
`
	bad := map[string][4]string{
		"RETURNS":  {"CEO", "CEO", "CEO", "Phone"},
		"Form":     {"CEO", "Phone", "CEO", "CEO"},
		"both":     {"CEO", "CEO", "CEO", "CEO"},
		"RETURNS2": {"Phone", "Phone", "CEO", "Phone"},
	}
	for name, n := range bad {
		if _, err := ParseTaskDef(fmt.Sprintf(src, n[0], n[1], n[2], n[3])); err == nil {
			t.Errorf("%s: a repeated field name parsed without error", name)
		}
	}
	if _, err := ParseTaskDef(fmt.Sprintf(src, "CEO", "ceo", "CEO", "ceo")); err != nil {
		t.Errorf("names differing in case: %v", err)
	}
}

func TestParsePaperTask2(t *testing.T) {
	task, err := ParseTaskDef(task2)
	if err != nil {
		t.Fatal(err)
	}
	if task.Type != TaskJoinPredicate {
		t.Errorf("type = %v", task.Type)
	}
	if len(task.Params) != 2 || !task.Params[0].IsList || task.Params[0].Kind != relation.KindImage {
		t.Errorf("params = %v", task.Params)
	}
	if task.ReturnsTuple() || task.ReturnKind() != relation.KindBool {
		t.Errorf("returns = %v", task.Returns)
	}
	r := task.Response
	if r.Kind != ResponseJoinColumns || r.LeftLabel != "Celebrity" || r.RightParam != "spotted" {
		t.Errorf("response = %+v", r)
	}
}

func TestParseScriptMixed(t *testing.T) {
	src := task1 + "\n" + task2 + "\n" + query1 + ";\n" + query2
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Tasks) != 2 || len(script.Queries) != 2 {
		t.Fatalf("script = %d tasks %d queries", len(script.Tasks), len(script.Queries))
	}
	if _, ok := script.Task("FINDCEO"); !ok {
		t.Error("case-insensitive task lookup failed")
	}
	if _, ok := script.Task("nope"); ok {
		t.Error("missing task lookup should fail")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	q, err := ParseQuery("SELECT a FROM t WHERE a = 1 OR b = 2 AND NOT c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", q.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR = %v", or.R)
	}
	if _, ok := and.R.(*Unary); !ok {
		t.Fatalf("right of AND should be NOT: %v", and.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	q, err := ParseQuery("SELECT a FROM t WHERE a + 2 * 3 = 7")
	if err != nil {
		t.Fatal(err)
	}
	cmp := q.Where.(*Binary)
	add := cmp.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("left = %v", cmp.L)
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != "*" {
		t.Fatalf("mul should bind tighter: %v", add.R)
	}
}

func TestParseSelectFeatures(t *testing.T) {
	q, err := ParseQuery(`SELECT DISTINCT t.a AS x, rate(t.b) score FROM items t WHERE rate(t.b) > 3 GROUP BY t.a ORDER BY score DESC, t.a LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("DISTINCT lost")
	}
	if q.Items[0].Alias != "x" || q.Items[1].Alias != "score" {
		t.Errorf("aliases = %v %v", q.Items[0].Alias, q.Items[1].Alias)
	}
	if q.From[0].EffectiveAlias() != "t" {
		t.Errorf("alias = %q", q.From[0].EffectiveAlias())
	}
	if len(q.GroupBy) != 1 || len(q.OrderBy) != 2 {
		t.Errorf("groupby=%d orderby=%d", len(q.GroupBy), len(q.OrderBy))
	}
	if !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Error("DESC flags wrong")
	}
	if q.Limit != 10 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseStar(t *testing.T) {
	q, err := ParseQuery("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Items[0].Expr.(*Star); !ok {
		t.Fatalf("item = %T", q.Items[0].Expr)
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := ParseQuery("SELECT a FROM t WHERE a = 'x' AND b = 2.5 AND c = TRUE AND d = FALSE AND e = NULL AND f = -3")
	if err != nil {
		t.Fatal(err)
	}
	var lits []relation.Value
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Unary:
			walk(v.X)
		case *Literal:
			lits = append(lits, v.Value)
		}
	}
	walk(q.Where)
	kinds := make([]relation.Kind, len(lits))
	for i, l := range lits {
		kinds[i] = l.Kind()
	}
	want := []relation.Kind{relation.KindString, relation.KindFloat, relation.KindBool, relation.KindBool, relation.KindNull, relation.KindInt}
	if len(kinds) != len(want) {
		t.Fatalf("lits = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("lit %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestStringEscapes(t *testing.T) {
	q, err := ParseQuery(`SELECT a FROM t WHERE a = 'it''s' AND b = "q\"q" AND c = 'n\nn'`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	// The printer must re-escape the embedded quote ('' form) so its
	// output reparses; a bare it's inside '...' would not.
	if !strings.Contains(s, "it''s") {
		t.Errorf("embedded quote not re-escaped: %s", s)
	}
	again, err := ParseQuery(s)
	if err != nil {
		t.Fatalf("String() output does not reparse: %s: %v", s, err)
	}
	if again.String() != s {
		t.Errorf("round-trip not stable:\n  %s\n  %s", s, again.String())
	}
}

func TestTaskTuningFields(t *testing.T) {
	src := `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  Price: 2
  Assignments: 5
  Batch: 10
`
	task, err := ParseTaskDef(src)
	if err != nil {
		t.Fatal(err)
	}
	if task.PriceCents != 2 || task.Assignments != 5 || task.BatchSize != 10 {
		t.Errorf("tuning = %d %d %d", task.PriceCents, task.Assignments, task.BatchSize)
	}
	if task.Response.Kind != ResponseYesNo {
		t.Errorf("response = %v", task.Response.Kind)
	}
}

func TestTaskShareField(t *testing.T) {
	mk := func(val string) (*TaskDef, error) {
		return ParseTaskDef(`
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  Share: ` + val + `
`)
	}
	for val, want := range map[string]bool{"Yes": true, "true": true, "On": true, "No": false, "false": false, "Off": false} {
		task, err := mk(val)
		if err != nil {
			t.Fatalf("Share: %s: %v", val, err)
		}
		if task.Share != want {
			t.Errorf("Share: %s parsed as %v", val, task.Share)
		}
	}
	if _, err := mk("Sometimes"); err == nil {
		t.Error("bad Share value accepted")
	}
}

func TestTaskCompareGroupSizeFields(t *testing.T) {
	task, err := ParseTaskDef(`
TASK rateIt(Image img)
RETURNS Int:
  TaskType: Rating
  Text: "Rate. %s", img
  Response: Rating(1, 9)
  Compare: orderIt
  GroupSize: 6
`)
	if err != nil {
		t.Fatal(err)
	}
	if task.CompareTask != "orderIt" {
		t.Errorf("CompareTask = %q", task.CompareTask)
	}
	if task.GroupSize != 6 {
		t.Errorf("GroupSize = %d", task.GroupSize)
	}

	// A Rank task with the Order response (note: ORDER lexes as a
	// keyword and must still parse as a response kind).
	task, err = ParseTaskDef(`
TASK orderIt(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order the items."
  Response: Order
  GroupSize: 5
`)
	if err != nil {
		t.Fatal(err)
	}
	if task.Response.Kind != ResponseOrder || task.GroupSize != 5 {
		t.Errorf("task = %+v", task)
	}

	// Compare is rating-only.
	if _, err := ParseTaskDef(`
TASK isCat(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Cat? %s", img
  Response: YesNo
  Compare: orderIt
`); err == nil {
		t.Error("Compare on a Filter task should be rejected")
	}

	// GroupSize needs a ranking surface and at least two items.
	if _, err := ParseTaskDef(`
TASK isCat(Image img)
RETURNS Bool:
  TaskType: Filter
  Text: "Cat? %s", img
  Response: YesNo
  GroupSize: 5
`); err == nil {
		t.Error("GroupSize on a Filter task should be rejected")
	}
	if _, err := ParseTaskDef(`
TASK orderIt(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order."
  Response: Order
  GroupSize: 1
`); err == nil {
		t.Error("GroupSize 1 should be rejected")
	}

	// Rank tasks must collect through the Order response and return
	// the Int position.
	if _, err := ParseTaskDef(`
TASK orderIt(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order."
  Response: YesNo
`); err == nil {
		t.Error("Rank task without an Order response should be rejected")
	}
	if _, err := ParseTaskDef(`
TASK orderIt(Image img)
RETURNS Bool:
  TaskType: Rank
  Text: "Order."
  Response: Order
`); err == nil {
		t.Error("Rank task returning Bool should be rejected")
	}
}

func TestTaskPreFilterField(t *testing.T) {
	src := `
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
  PreFilter: isPerson
`
	task, err := ParseTaskDef(src)
	if err != nil {
		t.Fatal(err)
	}
	if task.PreFilterTask != "isPerson" {
		t.Errorf("PreFilterTask = %q", task.PreFilterTask)
	}
	// PreFilter is join-only: a Filter task declaring one is rejected.
	bad := `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  PreFilter: isPhoto
`
	if _, err := ParseTaskDef(bad); err == nil {
		t.Error("PreFilter on a Filter task should be rejected")
	}
}

func TestTaskRatingAndChoice(t *testing.T) {
	src := `
TASK squareScore(Image pic)
RETURNS Int:
  TaskType: Rating
  Text: "Rate how square this is: %s", pic
  Response: Rating(1, 5)

TASK sentiment(String text)
RETURNS String:
  TaskType: Question
  Text: "What is the sentiment of: %s", text
  Response: Choice("positive", "negative", "neutral")
`
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := script.Task("squareScore")
	if rt.Response.ScaleMin != 1 || rt.Response.ScaleMax != 5 {
		t.Errorf("scale = %d..%d", rt.Response.ScaleMin, rt.Response.ScaleMax)
	}
	ct, _ := script.Task("sentiment")
	if len(ct.Response.Options) != 3 {
		t.Errorf("options = %v", ct.Response.Options)
	}
}

func TestTaskDefaultRatingScale(t *testing.T) {
	src := `
TASK score(Image pic)
RETURNS Int:
  TaskType: Rating
  Text: "Rate %s", pic
  Response: Rating
`
	task, err := ParseTaskDef(src)
	if err != nil {
		t.Fatal(err)
	}
	if task.Response.ScaleMin != 1 || task.Response.ScaleMax != 7 {
		t.Errorf("default scale = %d..%d", task.Response.ScaleMin, task.Response.ScaleMax)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                          // no statement
		"SELECT",                    // missing items
		"SELECT a",                  // missing FROM
		"SELECT a FROM",             // missing table
		"SELECT a FROM t WHERE",     // missing expr
		"SELECT a FROM t LIMIT x",   // bad limit
		"SELECT a FROM t GROUP a",   // missing BY
		"SELECT a FROM t ORDER a",   // missing BY
		"SELECT a FROM t; SELECT",   // trailing garbage via ParseQuery
		"SELECT f(a FROM t",         // unclosed call
		"SELECT a FROM t WHERE a >", // dangling operator
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t WHERE @",
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q): expected error", src)
		}
	}
	badTasks := []string{
		"TASK t() RETURNS Bool:",                                                                                          // missing TaskType
		"TASK t(String x) RETURNS Bool:\nTaskType: Widget",                                                                // bad type
		"TASK t(Widget x) RETURNS Bool:\nTaskType: Filter",                                                                // bad param type
		"TASK t(String x) RETURNS Widget:\nTaskType: Question",                                                            // bad return
		"TASK t(String x) RETURNS Bool:\nTaskType: Filter\nText: \"%s %s\", x",                                            // placeholder arity
		"TASK t(String x) RETURNS Bool:\nTaskType: Filter\nText: \"a\", y",                                                // unknown text arg
		"TASK t(String x) RETURNS String:\nTaskType: Filter\nText: \"a\"",                                                 // filter must return bool
		"TASK t(String x) RETURNS Bool:\nTaskType: JoinPredicate\nResponse: Form((\"a\", String))",                        // join needs joincolumns
		"TASK t(String x) RETURNS Bool:\nTaskType: Filter\nResponse: Choice(\"only\")",                                    // one-option choice
		"TASK t(String x) RETURNS Int:\nTaskType: Rating\nResponse: Rating(5, 5)",                                         // empty scale
		"TASK t(String x) RETURNS Bool:\nTaskType: Filter\nBogus: 3",                                                      // unknown field
		"TASK t(Image[] a, Image[] b) RETURNS Bool:\nTaskType: JoinPredicate\nResponse: JoinColumns(\"L\", a, \"R\", zz)", // unknown param
	}
	for _, src := range badTasks {
		if _, err := ParseTaskDef(src); err == nil {
			t.Errorf("ParseTaskDef(%q): expected error", src)
		}
	}
}

func TestSelectStringRoundTrip(t *testing.T) {
	srcs := []string{
		query1, query2,
		"SELECT DISTINCT a, b AS c FROM t, u WHERE a = 1 GROUP BY a ORDER BY b DESC LIMIT 3",
	}
	for _, src := range srcs {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		q2, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("round trip changed:\n  %s\n  %s", q.String(), q2.String())
		}
	}
}

func TestLexerPositions(t *testing.T) {
	_, err := ParseQuery("SELECT a FROM t WHERE\n  a = @")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}
}

func TestCommentsSkipped(t *testing.T) {
	q, err := ParseQuery("-- leading comment\nSELECT a -- trailing\nFROM t # hash comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 1 {
		t.Fatalf("items = %d", len(q.Items))
	}
}

func TestTaskBackendField(t *testing.T) {
	task, err := ParseTaskDef(`
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  Backend: llm
`)
	if err != nil {
		t.Fatal(err)
	}
	if task.Backend != "llm" {
		t.Errorf("Backend = %q", task.Backend)
	}
	if _, err := ParseTaskDef(`
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  Backend: 7
`); err == nil {
		t.Error("non-identifier Backend accepted")
	}
}
