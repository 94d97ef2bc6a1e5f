package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Program is a plan compiled for execution: every operator's
// expressions are resolved once against its input schema, and every
// literal of the plan becomes a parameter. A Program is immutable but
// for the count of queries started from it, so the engine's plan cache
// runs one for every query of its shape, each with its own parameter
// values.
type Program struct {
	root   *step
	labels *labels
	// params holds each literal's planned value.
	params []relation.Value
	// callParams are the parameters inside human-call arguments. Which
	// calls of an operator share a site depends on their values, so a
	// run may rebind them only to values equal where the planned ones
	// are (Fits).
	callParams []int
	humans     bool
}

// labels is what a query renders its labels from, while it runs and
// after it has retired: the plan's nodes and the numbering of their
// literals. It is allocated apart from the compiled steps, which a
// retired query drops.
type labels struct {
	nodes []plan.Node // by step id: pre-order, the order OpStats reports
	// joins are the step ids of the human joins with a pre-filtered
	// input, in plan order, for JoinReductions.
	joins []int
	lits  map[*qlang.Literal]int
	// runs counts the queries started from the program; a plan only one
	// of them ran is that query's to release (Query.ReleasePlan).
	runs atomic.Int64
}

// step is one plan node compiled against its input schema. Which fields
// a step uses depends on its node; the rest stay nil.
type step struct {
	node plan.Node
	id   int // position in labels.nodes
	kids []*step

	// exprs are a Filter's call-free conjuncts, a Project's items (nil
	// for *), an OrderBy's keys, a Rank's arguments, an Aggregate's
	// keys, a Join's residual conjuncts, and a PreFilter's argument.
	exprs []*expr
	// calls binds the human calls of a Project's, an OrderBy's or an
	// Aggregate's expressions; it has no sites when they call no task.
	calls *binding
	// tasks are the distinct tasks the step's bindings call, flushed
	// once its input ends. A tuple's record holds nargs arguments, those
	// of every binding it may resolve, and nvals slot values, those of
	// the widest.
	tasks        []string
	nargs, nvals int

	// human are a Filter's conjuncts that call tasks, humanSrc the same
	// as planned (for Config.FilterOrder), order their query order (the
	// cascade's default), and grouped binds them together for one HIT
	// per tuple (Config.GroupFilters); nil with fewer than two.
	human    []conjunct
	humanSrc []qlang.Expr
	order    []int
	grouped  *binding

	// args are a human Join's left and right arguments.
	args [2]*expr
	// aggs are an Aggregate's items.
	aggs []aggItem
}

// conjunct is one human conjunct of a Filter.
type conjunct struct {
	e *expr // compiled against b
	b *binding
	// inGroup is the conjunct compiled against the step's grouped
	// binding.
	inGroup *expr
	// assignments is 1 for an approximate (POSSIBLY) predicate, asked of
	// one worker, and 0 for the task's redundancy.
	assignments int
}

// aggItem is one compiled Aggregate item: e for a plain item, or the
// aggregate fn (lower-cased) over arg, its call's first argument (nil
// when it has none).
type aggItem struct {
	fn  string
	arg *expr
	e   *expr
}

// Compile compiles the plan rooted at root against script's tasks. The
// literals in lits become the program's first parameters, in order;
// every other literal of the plan follows in plan order. A statement's
// CollectStmtLiterals are the lits of its plan, so a later query of the
// same shape runs the program with its own values (Start).
func Compile(root plan.Node, script *qlang.Script, lits []*qlang.Literal) (*Program, error) {
	if script == nil {
		script = &qlang.Script{}
	}
	p := &Program{labels: &labels{lits: make(map[*qlang.Literal]int, len(lits))}}
	for _, l := range lits {
		p.param(l)
	}
	c := &compiler{prog: p, script: script}
	var err error
	p.root, err = c.step(root)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// param returns l's parameter, numbering it on first sight.
func (p *Program) param(l *qlang.Literal) int {
	i, ok := p.labels.lits[l]
	if !ok {
		i = len(p.params)
		p.labels.lits[l] = i
		p.params = append(p.params, l.Value)
	}
	return i
}

// Fits reports whether the program runs a query whose statement
// literals hold vals: one value per parameter (a plan holding a literal
// its statement does not has more), with the values inside human-call
// arguments equal exactly where the planned ones are.
func (p *Program) Fits(vals []relation.Value) bool {
	if len(vals) != len(p.params) {
		return false
	}
	for i, a := range p.callParams {
		for _, b := range p.callParams[i+1:] {
			if samePrint(p.params[a], p.params[b]) != samePrint(vals[a], vals[b]) {
				return false
			}
		}
	}
	return true
}

// samePrint reports whether two literal values print the same, which
// is what makes two calls one site.
func samePrint(a, b relation.Value) bool {
	return (a.Kind() == relation.KindString) == (b.Kind() == relation.KindString) && a.String() == b.String()
}

type compiler struct {
	prog   *Program
	script *qlang.Script
	inCall bool // compiling a human call's arguments
}

// step compiles n and its inputs, numbering steps pre-order.
func (c *compiler) step(n plan.Node) (*step, error) {
	lab := c.prog.labels
	s := &step{node: n, id: len(lab.nodes)}
	lab.nodes = append(lab.nodes, n)
	for _, kid := range n.Children() {
		k, err := c.step(kid)
		if err != nil {
			return nil, err
		}
		s.kids = append(s.kids, k)
	}
	switch v := n.(type) {
	case *plan.Scan, *plan.Distinct, *plan.Limit:
	case *plan.Filter:
		in := v.Input.Schema()
		for _, e := range v.Conjuncts {
			b, bound := c.bind(in, e)
			if len(b.sites) == 0 {
				s.exprs = append(s.exprs, bound[0])
				continue
			}
			h := conjunct{e: bound[0], b: b}
			if u, isUnary := e.(*qlang.Unary); isUnary && u.Op == "POSSIBLY" {
				h.assignments = 1
			}
			s.order = append(s.order, len(s.human))
			s.human = append(s.human, h)
			s.humanSrc = append(s.humanSrc, e)
		}
		var bs []*binding
		for _, h := range s.human {
			bs = append(bs, h.b)
		}
		s.resolves(bs...)
		if len(s.human) > 1 {
			var inGroup []*expr
			s.grouped, inGroup = c.bind(in, s.humanSrc...)
			for i := range s.human {
				s.human[i].inGroup = inGroup[i]
			}
			// Its calls are the conjuncts' calls, so their arguments fit.
			s.nvals = max(s.nvals, len(s.grouped.sites))
		}
	case *plan.Project:
		exprs := make([]qlang.Expr, len(v.Items))
		for i, it := range v.Items {
			exprs[i] = it.Expr
		}
		s.calls, s.exprs = c.bind(v.Input.Schema(), exprs...)
		for i, it := range v.Items {
			if _, isStar := it.Expr.(*qlang.Star); isStar {
				s.exprs[i] = nil
			}
		}
		s.resolves(s.calls)
	case *plan.PreFilter:
		s.exprs = []*expr{c.expr(v.Arg, v.Input.Schema(), nil)}
		c.prog.humans = true
	case *plan.Join:
		schema := v.Schema()
		for _, e := range v.Residual {
			s.exprs = append(s.exprs, c.expr(e, schema, nil))
		}
		if v.HumanTask != nil {
			s.args = [2]*expr{c.expr(v.LeftArg, v.Left.Schema(), nil), c.expr(v.RightArg, v.Right.Schema(), nil)}
			c.prog.humans = true
		}
		_, lpre := v.Left.(*plan.PreFilter)
		_, rpre := v.Right.(*plan.PreFilter)
		if lpre || rpre {
			c.prog.labels.joins = append(c.prog.labels.joins, s.id)
		}
	case *plan.OrderBy:
		exprs := make([]qlang.Expr, len(v.Keys))
		for i, k := range v.Keys {
			exprs[i] = k.Expr
		}
		s.calls, s.exprs = c.bind(v.Input.Schema(), exprs...)
		s.resolves(s.calls)
	case *plan.Rank:
		for _, a := range v.Args {
			s.exprs = append(s.exprs, c.expr(a, v.Input.Schema(), nil))
		}
		c.prog.humans = true
	case *plan.Aggregate:
		// The binding covers the keys, every argument of an aggregate
		// call and every plain item; an aggregate reads its first
		// argument.
		exprs := append([]qlang.Expr(nil), v.Keys...)
		at := make([]int, len(v.Items)) // item i's first expression in exprs
		for i, it := range v.Items {
			at[i] = len(exprs)
			if call, isAgg := aggCall(it.Expr); isAgg {
				exprs = append(exprs, call.Args...)
			} else {
				exprs = append(exprs, it.Expr)
			}
		}
		var bound []*expr
		s.calls, bound = c.bind(v.Input.Schema(), exprs...)
		s.exprs = bound[:len(v.Keys)]
		s.aggs = make([]aggItem, len(v.Items))
		for i, it := range v.Items {
			call, isAgg := aggCall(it.Expr)
			switch {
			case !isAgg:
				s.aggs[i] = aggItem{e: bound[at[i]]}
			case len(call.Args) == 0:
				s.aggs[i] = aggItem{fn: strings.ToLower(call.Name)}
			default:
				s.aggs[i] = aggItem{fn: strings.ToLower(call.Name), arg: bound[at[i]]}
			}
		}
		s.resolves(s.calls)
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
	return s, nil
}

// bind compiles exprs against schema in, with their human calls bound
// jointly: two call nodes that print the same without their field
// projection share a site. A call's arguments compile call-free. Every
// call's arguments compile, also those of a call that joins an earlier
// site, so that each literal deciding the sharing is a call parameter.
func (c *compiler) bind(in *relation.Schema, exprs ...qlang.Expr) (*binding, []*expr) {
	b := &binding{}
	slot := make(map[*qlang.Call]int)
	seen := make(map[string]int)
	for _, e := range exprs {
		walkCalls(e, c.script, func(call *qlang.Call, def *qlang.TaskDef) {
			c.inCall = true
			args := make([]*expr, len(call.Args))
			for j, a := range call.Args {
				args[j] = c.expr(a, in, nil)
			}
			c.inCall = false
			sig := callSig(call)
			i, ok := seen[sig]
			if !ok {
				i = len(b.sites)
				seen[sig] = i
				b.sites = append(b.sites, callSite{def: def, args: args, off: b.nargs})
				b.nargs += len(call.Args)
			}
			slot[call] = i
		})
	}
	out := make([]*expr, len(exprs))
	for i, e := range exprs {
		out[i] = c.expr(e, in, slot)
	}
	return b, out
}

// expr compiles e against schema in; slot maps its human call nodes to
// their sites (nil: call-free). What cannot evaluate compiles to an
// opFail that reports, per tuple, the error evaluation by name gave.
func (c *compiler) expr(e qlang.Expr, in *relation.Schema, slot map[*qlang.Call]int) *expr {
	switch v := e.(type) {
	case *qlang.Literal:
		i := c.prog.param(v)
		if c.inCall && !slices.Contains(c.prog.callParams, i) {
			c.prog.callParams = append(c.prog.callParams, i)
		}
		return &expr{op: opParam, slot: i}
	case *qlang.ColumnRef:
		if i, ok := in.Lookup(v.QualifiedName()); ok {
			return &expr{op: opColumn, slot: i}
		}
		return &expr{op: opFail, fail: func(*params) error {
			return fmt.Errorf("exec: unknown column %q in %v", v.QualifiedName(), in)
		}}
	case *qlang.Call:
		if i, ok := slot[v]; ok {
			return &expr{op: opCall, slot: i, field: v.Field}
		}
		return &expr{op: opFail, fail: func(p *params) error {
			return fmt.Errorf("exec: unresolved call %s", qlang.Format(v, p))
		}}
	case *qlang.Binary:
		if op, ok := binaryOps[v.Op]; ok {
			return &expr{op: op, l: c.expr(v.L, in, slot), r: c.expr(v.R, in, slot)}
		}
		return &expr{op: opFail, fail: func(*params) error { return fmt.Errorf("exec: unknown operator %q", v.Op) }}
	case *qlang.Unary:
		if op, ok := unaryOps[v.Op]; ok {
			return &expr{op: op, l: c.expr(v.X, in, slot)}
		}
		return &expr{op: opFail, fail: func(*params) error { return fmt.Errorf("exec: unknown unary op %q", v.Op) }}
	case *qlang.Star:
		return &expr{op: opFail, fail: func(*params) error { return fmt.Errorf("exec: * cannot be evaluated") }}
	default:
		return &expr{op: opFail, fail: func(*params) error { return fmt.Errorf("exec: unsupported expression %T", e) }}
	}
}

// resolves sizes the step's tuple records for resolving bs one after
// another and lists the distinct tasks they call.
func (s *step) resolves(bs ...*binding) {
	seen := make(map[*qlang.TaskDef]bool)
	for _, b := range bs {
		s.nargs += b.nargs
		s.nvals = max(s.nvals, len(b.sites))
		for _, site := range b.sites {
			if !seen[site.def] {
				seen[site.def] = true
				s.tasks = append(s.tasks, site.def.Name)
			}
		}
	}
}

func aggCall(e qlang.Expr) (*qlang.Call, bool) {
	call, ok := e.(*qlang.Call)
	if !ok {
		return nil, false
	}
	if plan.AggregateFuncs[strings.ToLower(call.Name)] {
		return call, true
	}
	return nil, false
}
