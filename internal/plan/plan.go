// Package plan builds logical query plans from parsed SELECT statements.
// Plans are trees of Nodes; the executor (internal/exec) compiles them
// into programs that fuse call-free nodes into pull-iterator chains and
// bridge human-task nodes with queued producer goroutines, and the
// optimizer (internal/optimizer) tunes operator parameters. Pushdown
// applies cheap always-safe rewrites. A plan is never mutated once
// built, so the engine's plan cache shares one among every query of its
// shape; Bind renders it with one query's literal values.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// Node is one logical operator.
type Node interface {
	// Schema is the node's output schema.
	Schema() *relation.Schema
	// Children returns input nodes, left to right.
	Children() []Node
	// Label names the node for EXPLAIN and the dashboard. b supplies
	// one execution's values for the plan's literals; nil prints them as
	// planned.
	Label(b qlang.Bindings) string
}

// Scan reads a base table.
type Scan struct {
	Table  *relation.Table
	Alias  string
	schema *relation.Schema
}

// Schema implements Node.
func (s *Scan) Schema() *relation.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Label implements Node.
func (s *Scan) Label(qlang.Bindings) string {
	if s.Alias != s.Table.Name() {
		return fmt.Sprintf("Scan(%s AS %s)", s.Table.Name(), s.Alias)
	}
	return fmt.Sprintf("Scan(%s)", s.Table.Name())
}

// Filter keeps tuples satisfying every conjunct. Conjuncts are kept
// separate so the adaptive optimizer can reorder human predicates by
// estimated cost×selectivity and short-circuit HITs.
type Filter struct {
	Input     Node
	Conjuncts []qlang.Expr
}

// Schema implements Node.
func (f *Filter) Schema() *relation.Schema { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Label implements Node.
func (f *Filter) Label(b qlang.Bindings) string {
	return "Filter(" + join(f.Conjuncts, " AND ", b) + ")"
}

// Join matches left and right tuples. Pred is the join predicate; when
// HumanTask is non-nil the predicate is a crowd task (Query 2) evaluated
// through the join interface, with LeftArg/RightArg the per-side
// expressions feeding it. Residual holds extra local conjuncts.
type Join struct {
	Left, Right Node
	HumanTask   *qlang.TaskDef
	LeftArg     qlang.Expr
	RightArg    qlang.Expr
	Residual    []qlang.Expr
	schema      *relation.Schema
}

// Schema implements Node.
func (j *Join) Schema() *relation.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *Join) Label(b qlang.Bindings) string {
	if j.HumanTask != nil {
		return "HumanJoin(" + j.HumanTask.Name + "(" + qlang.Format(j.LeftArg, b) + ", " + qlang.Format(j.RightArg, b) + "))"
	}
	if len(j.Residual) == 0 {
		return "CrossJoin"
	}
	return "Join(" + join(j.Residual, " AND ", b) + ")"
}

// Project computes the SELECT items (including human UDF calls).
type Project struct {
	Input  Node
	Items  []qlang.SelectItem
	schema *relation.Schema
}

// Schema implements Node.
func (p *Project) Schema() *relation.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Label implements Node.
func (p *Project) Label(b qlang.Bindings) string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = qlang.Format(it.Expr, b)
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Aggregate groups rows and computes aggregate functions.
type Aggregate struct {
	Input  Node
	Keys   []qlang.Expr
	Items  []qlang.SelectItem // mixture of keys and aggregate calls
	schema *relation.Schema
}

// Schema implements Node.
func (a *Aggregate) Schema() *relation.Schema { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Label implements Node.
func (a *Aggregate) Label(b qlang.Bindings) string {
	return "Aggregate(by " + join(a.Keys, ", ", b) + ")"
}

// OrderBy sorts; human keys (rating/rank tasks) resolve through HITs.
type OrderBy struct {
	Input Node
	Keys  []qlang.OrderItem
}

// Schema implements Node.
func (o *OrderBy) Schema() *relation.Schema { return o.Input.Schema() }

// Children implements Node.
func (o *OrderBy) Children() []Node { return []Node{o.Input} }

// Label implements Node.
func (o *OrderBy) Label(b qlang.Bindings) string {
	parts := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		parts[i] = qlang.Format(k.Expr, b)
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "OrderBy(" + strings.Join(parts, ", ") + ")"
}

// Rank orders its input by a single human ranking task — the
// human-powered sort. The executor hands the buffered input to the
// rank subsystem (internal/rank), which picks between batched S-way
// comparison HITs, per-item rating HITs, or the rate-then-refine
// hybrid, as priced by optimizer.ChooseRankStrategy.
type Rank struct {
	Input Node
	// Task is the ORDER BY key task (Rating or Rank type).
	Task *qlang.TaskDef
	// Compare is the comparison task used for Order HITs: Task itself
	// for Rank-type tasks, the task named by `Compare:` for Rating
	// tasks, nil when comparisons are unavailable (rate-only).
	Compare *qlang.TaskDef
	// Args are the call's argument expressions, evaluated per tuple.
	Args []qlang.Expr
	Desc bool
	// TopK > 0 is the LIMIT pushed down into the sort: only the first
	// TopK output positions must be exactly ordered, letting the
	// comparison strategies skip the full O(n²/S) pair coverage.
	TopK int
}

// Schema implements Node.
func (r *Rank) Schema() *relation.Schema { return r.Input.Schema() }

// Children implements Node.
func (r *Rank) Children() []Node { return []Node{r.Input} }

// Label implements Node.
func (r *Rank) Label(b qlang.Bindings) string {
	s := "Rank(" + r.Task.Name + "(" + join(r.Args, ", ", b) + ")"
	if r.Desc {
		s += " DESC"
	}
	if r.TopK > 0 {
		s += fmt.Sprintf(", top %d", r.TopK)
	}
	return s + ")"
}

// Distinct removes duplicate rows.
type Distinct struct{ Input Node }

// Schema implements Node.
func (d *Distinct) Schema() *relation.Schema { return d.Input.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// Label implements Node.
func (d *Distinct) Label(qlang.Bindings) string { return "Distinct" }

// Limit passes through the first N rows.
type Limit struct {
	Input Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() *relation.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Label implements Node.
func (l *Limit) Label(qlang.Bindings) string { return fmt.Sprintf("Limit(%d)", l.N) }

// join renders exprs with b, separated by sep.
func join(exprs []qlang.Expr, sep string, b qlang.Bindings) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = qlang.Format(e, b)
	}
	return strings.Join(parts, sep)
}

// Bind returns n as one execution of a shared plan sees it: a read-only
// view whose labels, and its children's, print b's values for the
// plan's literals, whatever bindings they are passed. Walk visits the
// planned nodes beneath a view.
func Bind(n Node, b qlang.Bindings) Node { return &bound{n: n, b: b} }

type bound struct {
	n Node
	b qlang.Bindings
}

func (v *bound) Schema() *relation.Schema    { return v.n.Schema() }
func (v *bound) Label(qlang.Bindings) string { return v.n.Label(v.b) }

func (v *bound) Children() []Node {
	kids := v.n.Children()
	out := make([]Node, len(kids))
	for i, c := range kids {
		out[i] = Bind(c, v.b)
	}
	return out
}

// Explain renders the plan tree, one node per line, children indented.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label(nil))
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// Walk visits every node pre-order.
func Walk(n Node, visit func(Node)) {
	if v, ok := n.(*bound); ok {
		n = v.n
	}
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}
