// Package exec is Qurk's Query Executor (paper §2): every plan node runs
// as a goroutine, operators communicate asynchronously through input
// queues (as in Volcano), and results are pushed from the top-most
// operator into a results table the user polls. Human-powered operators
// route their questions through the Task Manager.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// callSite is one distinct human invocation among an operator's
// expressions. Field projections of one call share it: the paper runs
// findCEO once per company even though Query 1 mentions it twice.
type callSite struct {
	call *qlang.Call // first appearance
	def  *qlang.TaskDef
	off  int // offset of the site's arguments in a tuple's argument block
}

// binding is an operator's human call sites, bound once when the
// operator starts: the distinct invocations in first-appearance order
// and, for every call node, the slot of the invocation it reads. A tuple
// resolves into a []relation.Value indexed by slot, and eval reads each
// call node's value from there.
type binding struct {
	sites []callSite
	slot  map[*qlang.Call]int
	nargs int // arguments across all sites
}

// bindCalls binds the human task calls of exprs. Two call nodes share a
// slot when they print the same without their field projection.
func bindCalls(script *qlang.Script, exprs ...qlang.Expr) *binding {
	b := &binding{slot: make(map[*qlang.Call]int)}
	seen := make(map[string]int)
	for _, e := range exprs {
		walkCalls(e, script, func(c *qlang.Call, def *qlang.TaskDef) {
			sig := (&qlang.Call{Name: c.Name, Args: c.Args}).String()
			i, ok := seen[sig]
			if !ok {
				i = len(b.sites)
				seen[sig] = i
				b.sites = append(b.sites, callSite{call: c, def: def, off: b.nargs})
				b.nargs += len(c.Args)
			}
			b.slot[c] = i
		})
	}
	return b
}

// taskNames lists the distinct tasks the bindings call, for flushing
// their partial batches once the operator's input ends.
func taskNames(bs ...*binding) []string {
	var names []string
	seen := make(map[*qlang.TaskDef]bool)
	for _, b := range bs {
		for _, s := range b.sites {
			if !seen[s.def] {
				seen[s.def] = true
				names = append(names, s.def.Name)
			}
		}
	}
	return names
}

// prepare evaluates every site's arguments for t and returns them in one
// block, with an empty slot-indexed value slice. The two are allocated
// apart because posted HITs keep their items' arguments for as long as
// the marketplace retains them. Operators call prepare before their
// first submission for the tuple, so an argument error posts and pays
// for nothing.
func (b *binding) prepare(t relation.Tuple) (args, vals []relation.Value, err error) {
	args = make([]relation.Value, b.nargs)
	for _, s := range b.sites {
		for j, a := range s.call.Args {
			v, err := Eval(a, t)
			if err != nil {
				return nil, nil, err
			}
			args[s.off+j] = v
		}
	}
	return args, make([]relation.Value, len(b.sites)), nil
}

// gather collects one tuple's call outcomes into slot order and runs
// then after the last one, with the first error if any failed.
type gather struct {
	mu        sync.Mutex
	vals      []relation.Value
	remaining int
	err       error
	then      func([]relation.Value, error)
}

// request builds the task request for site i of b, reporting into g.
func (q *run) request(op *operator, b *binding, i int, args []relation.Value, assignments int, g *gather) taskmgr.Request {
	s := b.sites[i]
	end := s.off + len(s.call.Args)
	return taskmgr.Request{
		Def:         s.def,
		Args:        args[s.off:end:end],
		Assignments: assignments,
		Scope:       q.cfg.Scope,
		Trace:       op.span,
		Done: func(out taskmgr.Outcome) {
			g.mu.Lock()
			if out.Err != nil && g.err == nil {
				g.err = out.Err
			} else {
				g.vals[i] = out.Value
			}
			g.remaining--
			last, err := g.remaining == 0, g.err
			g.mu.Unlock()
			if last {
				g.then(g.vals, err)
			}
		},
	}
}

// walkCalls visits every human task call node of e in first-appearance
// order. Aggregate functions are not tasks.
func walkCalls(e qlang.Expr, script *qlang.Script, visit func(*qlang.Call, *qlang.TaskDef)) {
	switch v := e.(type) {
	case *qlang.Call:
		if def, ok := script.Task(v.Name); ok {
			visit(v, def)
		}
		for _, a := range v.Args {
			walkCalls(a, script, visit)
		}
	case *qlang.Binary:
		walkCalls(v.L, script, visit)
		walkCalls(v.R, script, visit)
	case *qlang.Unary:
		walkCalls(v.X, script, visit)
	}
}

// CollectCalls returns the distinct human task calls in an expression,
// in first-appearance order.
func CollectCalls(e qlang.Expr, script *qlang.Script) []*qlang.Call {
	b := bindCalls(script, e)
	out := make([]*qlang.Call, len(b.sites))
	for i, s := range b.sites {
		out[i] = s.call
	}
	return out
}

// Eval evaluates a call-free expression over a tuple.
func Eval(e qlang.Expr, t relation.Tuple) (relation.Value, error) {
	return eval(e, t, nil, nil)
}

// eval evaluates an expression over a tuple whose human calls resolved
// into vals under binding b. A call without a slot is an error: the
// operator must resolve calls first.
func eval(e qlang.Expr, t relation.Tuple, b *binding, vals []relation.Value) (relation.Value, error) {
	switch v := e.(type) {
	case *qlang.Literal:
		return v.Value, nil
	case *qlang.ColumnRef:
		if t.Schema != nil {
			if i, ok := t.Schema.Lookup(v.QualifiedName()); ok {
				return t.Values[i], nil
			}
		}
		return relation.Null, fmt.Errorf("exec: unknown column %q in %v", v.QualifiedName(), t.Schema)
	case *qlang.Call:
		i, ok := 0, false
		if b != nil {
			i, ok = b.slot[v]
		}
		if !ok {
			return relation.Null, fmt.Errorf("exec: unresolved call %s", v)
		}
		if v.Field != "" {
			return vals[i].Field(v.Field), nil
		}
		return vals[i], nil
	case *qlang.Binary:
		return evalBinary(v, t, b, vals)
	case *qlang.Unary:
		x, err := eval(v.X, t, b, vals)
		if err != nil {
			return relation.Null, err
		}
		switch v.Op {
		case "NOT":
			return relation.NewBool(!x.Truthy()), nil
		case "POSSIBLY":
			return relation.NewBool(x.Truthy()), nil
		case "-":
			if x.Kind() == relation.KindInt {
				return relation.NewInt(-x.Int()), nil
			}
			return relation.NewFloat(-x.Float()), nil
		default:
			return relation.Null, fmt.Errorf("exec: unknown unary op %q", v.Op)
		}
	case *qlang.Star:
		return relation.Null, fmt.Errorf("exec: * cannot be evaluated")
	default:
		return relation.Null, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func evalBinary(v *qlang.Binary, t relation.Tuple, b *binding, vals []relation.Value) (relation.Value, error) {
	// AND/OR short-circuit on the left operand.
	if v.Op == "AND" || v.Op == "OR" {
		l, err := eval(v.L, t, b, vals)
		if err != nil {
			return relation.Null, err
		}
		lt := l.Truthy()
		if v.Op == "AND" && !lt {
			return relation.NewBool(false), nil
		}
		if v.Op == "OR" && lt {
			return relation.NewBool(true), nil
		}
		r, err := eval(v.R, t, b, vals)
		if err != nil {
			return relation.Null, err
		}
		return relation.NewBool(r.Truthy()), nil
	}
	l, err := eval(v.L, t, b, vals)
	if err != nil {
		return relation.Null, err
	}
	r, err := eval(v.R, t, b, vals)
	if err != nil {
		return relation.Null, err
	}
	switch v.Op {
	case "=":
		return relation.NewBool(l.Compare(r) == 0), nil
	case "!=":
		return relation.NewBool(l.Compare(r) != 0), nil
	case "<":
		return relation.NewBool(l.Compare(r) < 0), nil
	case "<=":
		return relation.NewBool(l.Compare(r) <= 0), nil
	case ">":
		return relation.NewBool(l.Compare(r) > 0), nil
	case ">=":
		return relation.NewBool(l.Compare(r) >= 0), nil
	case "+", "-", "*", "/":
		return evalArith(v.Op, l, r)
	default:
		return relation.Null, fmt.Errorf("exec: unknown operator %q", v.Op)
	}
}

func evalArith(op string, l, r relation.Value) (relation.Value, error) {
	bothInt := l.Kind() == relation.KindInt && r.Kind() == relation.KindInt
	if bothInt && op != "/" {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			return relation.NewInt(a + b), nil
		case "-":
			return relation.NewInt(a - b), nil
		case "*":
			return relation.NewInt(a * b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case "+":
		return relation.NewFloat(a + b), nil
	case "-":
		return relation.NewFloat(a - b), nil
	case "*":
		return relation.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return relation.Null, fmt.Errorf("exec: division by zero")
		}
		return relation.NewFloat(a / b), nil
	}
	return relation.Null, fmt.Errorf("exec: unknown arithmetic op %q", op)
}
