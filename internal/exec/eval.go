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

// opcode is what one compiled expression node computes.
type opcode uint8

const (
	opColumn opcode = iota // the input tuple's value at slot
	opParam                // the query's parameter at slot
	opCall                 // the tuple's call answer at slot, projected to field
	opFail                 // fail's error: the expression cannot evaluate
	opNot
	opPossibly
	opNeg
	opAnd
	opOr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opDiv
)

var binaryOps = map[string]opcode{
	"AND": opAnd, "OR": opOr, "=": opEq, "!=": opNe, "<": opLt, "<=": opLe,
	">": opGt, ">=": opGe, "+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
}

var unaryOps = map[string]opcode{"NOT": opNot, "POSSIBLY": opPossibly, "-": opNeg}

// expr is an expression compiled against an operator's fixed input
// schema: columns read their slot in the tuple, literals the query's
// parameter, and human calls their slot in the operator's binding, so
// evaluation resolves no name. Compiled expressions are immutable and
// shared by every query that runs their program.
type expr struct {
	op   opcode
	slot int
	// field is an opCall's field projection ("" for none).
	field string
	l, r  *expr // operands; unary operators use l
	fail  func(p *params) error
}

// eval evaluates e over tuple t, whose human calls resolved into calls
// (nil for call-free operators), under the query's parameters p.
func (e *expr) eval(t relation.Tuple, p *params, calls []relation.Value) (relation.Value, error) {
	switch e.op {
	case opColumn:
		return t.Values[e.slot], nil
	case opParam:
		return p.vals[e.slot], nil
	case opCall:
		if e.field != "" {
			return calls[e.slot].Field(e.field), nil
		}
		return calls[e.slot], nil
	case opFail:
		return relation.Null, e.fail(p)
	case opNot, opPossibly, opNeg:
		x, err := e.l.eval(t, p, calls)
		if err != nil {
			return relation.Null, err
		}
		switch e.op {
		case opNot:
			return relation.NewBool(!x.Truthy()), nil
		case opPossibly:
			return relation.NewBool(x.Truthy()), nil
		}
		if x.Kind() == relation.KindInt {
			return relation.NewInt(-x.Int()), nil
		}
		return relation.NewFloat(-x.Float()), nil
	case opAnd, opOr:
		// Short-circuit on the left operand.
		l, err := e.l.eval(t, p, calls)
		if err != nil {
			return relation.Null, err
		}
		if lt := l.Truthy(); lt == (e.op == opOr) {
			return relation.NewBool(lt), nil
		}
		r, err := e.r.eval(t, p, calls)
		if err != nil {
			return relation.Null, err
		}
		return relation.NewBool(r.Truthy()), nil
	}
	l, err := e.l.eval(t, p, calls)
	if err != nil {
		return relation.Null, err
	}
	r, err := e.r.eval(t, p, calls)
	if err != nil {
		return relation.Null, err
	}
	switch e.op {
	case opEq:
		return relation.NewBool(l.Compare(r) == 0), nil
	case opNe:
		return relation.NewBool(l.Compare(r) != 0), nil
	case opLt:
		return relation.NewBool(l.Compare(r) < 0), nil
	case opLe:
		return relation.NewBool(l.Compare(r) <= 0), nil
	case opGt:
		return relation.NewBool(l.Compare(r) > 0), nil
	case opGe:
		return relation.NewBool(l.Compare(r) >= 0), nil
	}
	return evalArith(e.op, l, r)
}

func evalArith(op opcode, l, r relation.Value) (relation.Value, error) {
	if l.Kind() == relation.KindInt && r.Kind() == relation.KindInt && op != opDiv {
		a, b := l.Int(), r.Int()
		switch op {
		case opAdd:
			return relation.NewInt(a + b), nil
		case opSub:
			return relation.NewInt(a - b), nil
		default:
			return relation.NewInt(a * b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case opAdd:
		return relation.NewFloat(a + b), nil
	case opSub:
		return relation.NewFloat(a - b), nil
	case opMul:
		return relation.NewFloat(a * b), nil
	}
	if b == 0 {
		return relation.Null, fmt.Errorf("exec: division by zero")
	}
	return relation.NewFloat(a / b), nil
}

// params are one query's values for its program's literals. They
// implement qlang.Bindings, so a label rendered from the shared plan
// shows the query's own constants.
type params struct {
	*labels
	vals []relation.Value
}

// Literal implements qlang.Bindings.
func (p *params) Literal(l *qlang.Literal) (relation.Value, bool) {
	i, ok := p.lits[l]
	if !ok {
		return relation.Null, false
	}
	return p.vals[i], true
}

// callSite is one distinct human invocation among an operator's
// expressions. Field projections of one call share it: the paper runs
// findCEO once per company even though Query 1 mentions it twice.
type callSite struct {
	def  *qlang.TaskDef
	args []*expr
	off  int // offset of the site's arguments in a tuple's argument block
}

// binding is an operator's human call sites, in first-appearance order;
// each call node of its expressions compiles to the slot of the site it
// reads. A tuple resolves into a []relation.Value indexed by slot.
type binding struct {
	sites []callSite
	nargs int // arguments across all sites
}

// prepare evaluates every site's arguments for t and returns them in one
// block, with an empty slot-indexed value slice. The two are allocated
// apart because posted HITs keep their items' arguments for as long as
// the marketplace retains them. Operators call prepare before their
// first submission for the tuple, so an argument error posts and pays
// for nothing.
func (b *binding) prepare(t relation.Tuple, p *params) (args, vals []relation.Value, err error) {
	args = make([]relation.Value, b.nargs)
	for _, s := range b.sites {
		for j, a := range s.args {
			v, err := a.eval(t, p, nil)
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
	end := s.off + len(s.args)
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

// callSig identifies an invocation: two call nodes are one site when
// they print the same without their field projection.
func callSig(c *qlang.Call) string {
	return (&qlang.Call{Name: c.Name, Args: c.Args}).String()
}

// CollectCalls returns the distinct human task calls in an expression,
// in first-appearance order.
func CollectCalls(e qlang.Expr, script *qlang.Script) []*qlang.Call {
	var out []*qlang.Call
	seen := make(map[string]bool)
	walkCalls(e, script, func(c *qlang.Call, _ *qlang.TaskDef) {
		if sig := callSig(c); !seen[sig] {
			seen[sig] = true
			out = append(out, c)
		}
	})
	return out
}
