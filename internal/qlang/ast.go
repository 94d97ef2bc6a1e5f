package qlang

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Expr is a query expression node.
type Expr interface {
	exprNode()
	String() string
}

// ColumnRef names a column, optionally qualified ("celebrities.name").
type ColumnRef struct {
	Table string // may be ""
	Name  string
}

func (*ColumnRef) exprNode() {}

func (c *ColumnRef) String() string { return Format(c, nil) }

// QualifiedName returns the full dotted name.
func (c *ColumnRef) QualifiedName() string { return c.String() }

// Literal is a constant value.
type Literal struct {
	Value relation.Value
}

func (*Literal) exprNode() {}

func (l *Literal) String() string { return Format(l, nil) }

// Call invokes a UDF/task, e.g. findCEO(companyName).CEO — Field holds
// the optional tuple-field projection after the call.
type Call struct {
	Name  string
	Args  []Expr
	Field string // "" when no .Field suffix
}

func (*Call) exprNode() {}

func (c *Call) String() string { return Format(c, nil) }

// Binary is an infix operation. Op is one of
// = != < <= > >= AND OR + - * /.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) exprNode() {}

func (b *Binary) String() string { return Format(b, nil) }

// Unary is a prefix operation; Op is NOT or -.
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) exprNode() {}

func (u *Unary) String() string { return Format(u, nil) }

// Star is the * select item.
type Star struct{}

func (*Star) exprNode()      {}
func (*Star) String() string { return "*" }

// Bindings supply one execution's values for the literals of a plan
// that several queries share: queries that differ only in constants
// run one plan, and each renders it with its own values.
type Bindings interface {
	// Literal returns the value bound to lit, or ok=false to print lit
	// as written.
	Literal(lit *Literal) (v relation.Value, ok bool)
}

// Format renders e as String does, printing each literal that b binds
// with its bound value. A nil b prints every literal as written.
func Format(e Expr, b Bindings) string {
	var sb strings.Builder
	writeExpr(&sb, e, b)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr, b Bindings) {
	switch v := e.(type) {
	case *ColumnRef:
		if v.Table != "" {
			sb.WriteString(v.Table)
			sb.WriteByte('.')
		}
		sb.WriteString(v.Name)
	case *Literal:
		val := v.Value
		if b != nil {
			if bound, ok := b.Literal(v); ok {
				val = bound
			}
		}
		if val.Kind() == relation.KindString {
			// Re-escape embedded quotes ('' is the literal quote in the
			// surface syntax), so String() output always reparses.
			sb.WriteByte('\'')
			sb.WriteString(strings.ReplaceAll(val.Str(), "'", "''"))
			sb.WriteByte('\'')
			return
		}
		sb.WriteString(val.String())
	case *Call:
		sb.WriteString(v.Name)
		sb.WriteByte('(')
		for i, a := range v.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, b)
		}
		sb.WriteByte(')')
		if v.Field != "" {
			sb.WriteByte('.')
			sb.WriteString(v.Field)
		}
	case *Binary:
		sb.WriteByte('(')
		writeExpr(sb, v.L, b)
		sb.WriteByte(' ')
		sb.WriteString(v.Op)
		sb.WriteByte(' ')
		writeExpr(sb, v.R, b)
		sb.WriteByte(')')
	case *Unary:
		sb.WriteString(v.Op)
		sb.WriteByte(' ')
		writeExpr(sb, v.X, b)
	case *Star:
		sb.WriteByte('*')
	}
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Expr  Expr
	Alias string // "" when unaliased
}

// OutputName returns the column name this item produces.
func (s SelectItem) OutputName(pos int) string {
	if s.Alias != "" {
		return s.Alias
	}
	if c, ok := s.Expr.(*ColumnRef); ok {
		return c.QualifiedName()
	}
	if c, ok := s.Expr.(*Call); ok {
		if c.Field != "" {
			return c.Name + "." + c.Field
		}
		return c.Name
	}
	return fmt.Sprintf("col%d", pos+1)
}

// TableRef names a FROM table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveAlias returns the alias, defaulting to the table name.
func (t TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// String re-renders the statement, normalized.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Name)
		if t.Alias != "" {
			b.WriteString(" " + t.Alias)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		b.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Expr.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		b.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	return b.String()
}

// TaskType classifies how a task is rendered and executed as a HIT,
// following the paper's TaskType field plus the operator types the
// companion paper describes.
type TaskType int

// Task types.
const (
	// TaskQuestion is a free-form question answered with a form
	// (Task 1: findCEO).
	TaskQuestion TaskType = iota
	// TaskJoinPredicate compares items from two tables
	// (Task 2: samePerson).
	TaskJoinPredicate
	// TaskFilter is a yes/no predicate on one tuple.
	TaskFilter
	// TaskRank asks workers to order items (comparison-based sort).
	TaskRank
	// TaskRating asks for a numeric score per item (rating-based sort).
	TaskRating
	// TaskGenerative asks workers to produce a value per tuple
	// (schema extension like Query 1 when RETURNS is scalar).
	TaskGenerative
)

var taskTypeNames = map[string]TaskType{
	"question":      TaskQuestion,
	"joinpredicate": TaskJoinPredicate,
	"filter":        TaskFilter,
	"rank":          TaskRank,
	"rating":        TaskRating,
	"generative":    TaskGenerative,
}

// ParseTaskType resolves a TaskType name, case-insensitively.
func ParseTaskType(s string) (TaskType, error) {
	if t, ok := taskTypeNames[strings.ToLower(strings.TrimSpace(s))]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("qlang: unknown TaskType %q", s)
}

func (t TaskType) String() string {
	switch t {
	case TaskQuestion:
		return "Question"
	case TaskJoinPredicate:
		return "JoinPredicate"
	case TaskFilter:
		return "Filter"
	case TaskRank:
		return "Rank"
	case TaskRating:
		return "Rating"
	case TaskGenerative:
		return "Generative"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// Param is one parameter of a TASK.
type Param struct {
	Name   string
	Kind   relation.Kind
	IsList bool // declared with a [] suffix, e.g. Image[]
}

// ReturnField is one component of a tuple-valued RETURNS clause.
type ReturnField struct {
	Name string
	Kind relation.Kind
}

// ResponseKind classifies the Response clause of a task.
type ResponseKind int

// Response kinds.
const (
	// ResponseForm collects free-text fields (Task 1).
	ResponseForm ResponseKind = iota
	// ResponseJoinColumns shows two columns of items to match (Task 2).
	ResponseJoinColumns
	// ResponseYesNo is a boolean radio choice.
	ResponseYesNo
	// ResponseRating is a numeric scale.
	ResponseRating
	// ResponseOrder asks the worker to order the shown items.
	ResponseOrder
	// ResponseChoice is a single selection among fixed options.
	ResponseChoice
)

func (r ResponseKind) String() string {
	switch r {
	case ResponseForm:
		return "Form"
	case ResponseJoinColumns:
		return "JoinColumns"
	case ResponseYesNo:
		return "YesNo"
	case ResponseRating:
		return "Rating"
	case ResponseOrder:
		return "Order"
	case ResponseChoice:
		return "Choice"
	default:
		return fmt.Sprintf("ResponseKind(%d)", int(r))
	}
}

// FormField is one input of a ResponseForm.
type FormField struct {
	Label string
	Kind  relation.Kind
}

// Response describes how worker input is collected.
type Response struct {
	Kind ResponseKind
	// Form fields (ResponseForm).
	Fields []FormField
	// JoinColumns labels and the parameter names bound to each column.
	LeftLabel, RightLabel string
	LeftParam, RightParam string
	// Rating scale bounds (ResponseRating); default 1..7.
	ScaleMin, ScaleMax int
	// Choice options (ResponseChoice).
	Options []string
}

// TaskDef is a parsed TASK definition (paper Task 1 / Task 2).
type TaskDef struct {
	Name    string
	Params  []Param
	Returns []ReturnField // single anonymous field uses Name ""
	Type    TaskType
	// Text is the instruction template; %s placeholders are substituted
	// with TextArgs (parameter names) in order.
	Text     string
	TextArgs []string
	Response Response

	// Optional tuning overrides; zero means "let the optimizer decide".
	PriceCents  int64
	Assignments int
	BatchSize   int

	// MinAssignments opts this task's HITs into adaptive redundancy
	// ("MinAssignments: 2"): they post with this many assignments and
	// the answer-inference aggregator extends one at a time, up to the
	// effective Assignments cap, while the posterior stays unsure. Zero
	// posts at the cap directly (the fixed-redundancy default).
	MinAssignments int

	// Infer selects the answer-inference aggregator for this task
	// ("Infer: em"): "majority" for seed-compatible majority voting,
	// "em" for joint worker-quality/answer EM. Empty defers to the
	// engine-wide inference configuration.
	Infer string

	// PreFilterTask names a cheap boolean feature-filter task the
	// optimizer may run over both inputs of a JoinPredicate task to
	// shrink the human-evaluated cross product ("PreFilter: isPerson").
	// Empty means no pre-filter is available for this join.
	PreFilterTask string

	// CompareTask names a companion Rank task (Order response) the sort
	// subsystem may use to comparison-sort items rated by this task
	// ("Compare: orderItems"). Only meaningful on Rating tasks; empty
	// means ORDER BY over this task can only rate.
	CompareTask string
	// GroupSize is the number of items shown together in one S-way
	// comparison (Order) HIT ("GroupSize: 5"). Zero lets the sort
	// subsystem use its default. Meaningful on Rank tasks (their own
	// batches) and Rating tasks (the companion's batches).
	GroupSize int

	// Share opts every application of this task into cross-query HIT
	// co-batching ("Share: Yes"), regardless of the submitting query's
	// own WithSharedBatching choice: queries whose effective posting
	// policy for the task matches may fill one HIT together.
	Share bool

	// Backend pins every HIT of this task to one named worker backend
	// ("Backend: llm"). Empty lets the engine's backend router (or its
	// optimizer-installed chooser) decide; without a router configured
	// the property is rejected at engine start.
	Backend string
}

// ReturnsTuple reports whether the task returns a multi-field tuple.
func (t *TaskDef) ReturnsTuple() bool {
	return len(t.Returns) > 1 || (len(t.Returns) == 1 && t.Returns[0].Name != "")
}

// ReturnKind returns the kind produced when the task returns a scalar.
func (t *TaskDef) ReturnKind() relation.Kind {
	if len(t.Returns) == 1 {
		return t.Returns[0].Kind
	}
	return relation.KindTuple
}

// Param returns the named parameter and whether it exists.
func (t *TaskDef) Param(name string) (Param, bool) {
	for _, p := range t.Params {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return Param{}, false
}

// Script is a parsed source file: task definitions plus queries, in order.
type Script struct {
	Tasks   []*TaskDef
	Queries []*SelectStmt
}

// Task returns the named task definition, case-insensitively.
func (s *Script) Task(name string) (*TaskDef, bool) {
	for _, t := range s.Tasks {
		if strings.EqualFold(t.Name, name) {
			return t, true
		}
	}
	return nil, false
}
