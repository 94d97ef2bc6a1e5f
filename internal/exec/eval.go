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
// reads. A tuple's record resolves it into its slot values.
type binding struct {
	sites []callSite
	nargs int // arguments across all sites
}

// tupleCalls is one tuple's record while an operator resolves its human
// calls: the tuple, its place in a Filter's cascade, its argument block,
// the slot values of the binding in flight and the count of outcomes
// still due. One allocation holds the block and the values. The block
// has a region for each binding the tuple may resolve, and no region is
// reused: posted HITs keep their items' arguments for as long as the
// marketplace retains them.
type tupleCalls struct {
	q  *run
	op *operator
	t  relation.Tuple
	// then is the operator's continuation: it runs after the last
	// outcome of each binding the record resolves, with the first error.
	then func(r *tupleCalls, err error)
	// order is a Filter's conjunct order and k the place in it of the
	// conjunct in flight; row is an OrderBy's buffered row.
	order  []int
	k, row int
	args   []relation.Value // the argument block's unused regions
	vals   []relation.Value
	// done is slot 0's Done callback, bound once per tuple; a binding
	// with more than one site binds one per further site.
	done func(taskmgr.Outcome)

	mu        sync.Mutex
	remaining int
	err       error
}

// newCalls makes t's record, sized for every binding op's step resolves.
func (q *run) newCalls(op *operator, t relation.Tuple, then func(*tupleCalls, error)) *tupleCalls {
	s := op.step
	block := make([]relation.Value, s.nargs+s.nvals)
	r := &tupleCalls{q: q, op: op, t: t, then: then, args: block[:s.nargs:s.nargs], vals: block[s.nargs:]}
	r.done = func(out taskmgr.Outcome) { r.deliver(0, out) }
	return r
}

// resolve asks b's calls about the record's tuple. It evaluates every
// argument into the block's next region before anything is submitted,
// so an argument error posts and pays for nothing, then submits one
// request per site, or all of them as one HIT when group is set. then
// runs after the last outcome, synchronously when every answer is free,
// and at once with the error when nothing could be asked. assignments > 0
// overrides the per-task redundancy (POSSIBLY predicates pass 1).
func (r *tupleCalls) resolve(b *binding, assignments int, group bool) {
	q := r.q
	if q.cfg.Mgr == nil {
		r.then(r, fmt.Errorf("exec: human call without task manager"))
		return
	}
	args := r.args[:b.nargs:b.nargs]
	for _, s := range b.sites {
		for j, a := range s.args {
			v, err := a.eval(r.t, q.params, nil)
			if err != nil {
				r.then(r, err)
				return
			}
			args[s.off+j] = v
		}
	}
	r.args = r.args[b.nargs:]
	r.remaining = len(b.sites)
	if !group {
		for i := range b.sites {
			q.cfg.Mgr.Submit(r.request(b, i, args, assignments))
		}
		return
	}
	reqs := make([]taskmgr.Request, len(b.sites))
	for i := range reqs {
		reqs[i] = r.request(b, i, args, assignments)
	}
	if err := q.cfg.Mgr.SubmitGroup(reqs); err != nil {
		r.then(r, err)
	}
}

// request is the task request for site i of b, reporting into slot i.
func (r *tupleCalls) request(b *binding, i int, args []relation.Value, assignments int) taskmgr.Request {
	s := &b.sites[i]
	done := r.done
	if i > 0 {
		done = func(out taskmgr.Outcome) { r.deliver(i, out) }
	}
	end := s.off + len(s.args)
	return taskmgr.Request{Def: s.def, Args: args[s.off:end:end], Assignments: assignments,
		Scope: r.q.cfg.Scope, Trace: r.op.span, Done: done}
}

// deliver records slot i's outcome; the last one due runs then, with the
// first error if any failed.
func (r *tupleCalls) deliver(i int, out taskmgr.Outcome) {
	r.mu.Lock()
	if out.Err != nil && r.err == nil {
		r.err = out.Err
	}
	r.vals[i] = out.Value
	r.remaining--
	last, err := r.remaining == 0, r.err
	r.mu.Unlock()
	if last {
		r.then(r, err)
	}
}

// holds evaluates e over the record's tuple and answers.
func (r *tupleCalls) holds(e *expr) (bool, error) {
	v, err := e.eval(r.t, r.q.params, r.vals)
	return err == nil && v.Truthy(), err
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
