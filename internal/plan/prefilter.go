package plan

import (
	"repro/internal/qlang"
	"repro/internal/relation"
)

// PreFilter runs a cheap boolean feature-filter task over one input of a
// human join, discarding tuples the filter rejects so the join's
// human-evaluated cross product shrinks (the paper's filtering-based
// reduction in cross-product size). The executor resolves the filter
// with single-assignment POSSIBLY-style semantics: it is an
// approximation the join predicate would re-check anyway, so redundancy
// is not worth paying for.
type PreFilter struct {
	Input Node
	// Task is the boolean feature-filter task applied to each tuple.
	Task *qlang.TaskDef
	// Arg is this side's join argument, fed to Task.
	Arg qlang.Expr
	// Join is the human join this node protects; Left tells which input.
	Join *Join
	Left bool
}

// Schema implements Node.
func (p *PreFilter) Schema() *relation.Schema { return p.Input.Schema() }

// Children implements Node.
func (p *PreFilter) Children() []Node { return []Node{p.Input} }

// Label implements Node.
func (p *PreFilter) Label(b qlang.Bindings) string {
	return "PreFilter(" + p.Task.Name + "(" + qlang.Format(p.Arg, b) + "))"
}

// PreFilterDecision says which inputs of one join to wrap.
type PreFilterDecision struct {
	Left, Right bool
}

// PreFilterDecider is the optimizer's cost hook: given the join task,
// its declared feature filter and the estimated input cardinalities, it
// decides which sides (if any) are worth pre-filtering. The engine
// plugs in a decider backed by optimizer.DecidePreFilter and the
// Statistics Manager's live selectivity estimates.
type PreFilterDecider func(join, filter *qlang.TaskDef, leftRows, rightRows int) PreFilterDecision

// ApplyPreFilters returns the plan with the inputs of every human join
// whose task declares a PreFilter wrapped in feature-filter nodes, on
// the sides decide predicts the filter pays for itself. A missing or
// ineligible filter task (not boolean, not unary) leaves the join
// untouched: the rewrite is an optimization, never a requirement. n is
// not modified: every node above a wrapped input is copied, and a plan
// without one comes back as n itself. decide is asked once per eligible
// join, inputs first, so a recorded vector of its answers identifies
// the rewrite.
func ApplyPreFilters(n Node, script *qlang.Script, decide PreFilterDecider) Node {
	switch v := n.(type) {
	case *Filter:
		if in := ApplyPreFilters(v.Input, script, decide); in != v.Input {
			cp := *v
			cp.Input = in
			return &cp
		}
	case *Project:
		if in := ApplyPreFilters(v.Input, script, decide); in != v.Input {
			cp := *v
			cp.Input = in
			return &cp
		}
	case *Aggregate:
		if in := ApplyPreFilters(v.Input, script, decide); in != v.Input {
			cp := *v
			cp.Input = in
			return &cp
		}
	case *OrderBy:
		if in := ApplyPreFilters(v.Input, script, decide); in != v.Input {
			cp := *v
			cp.Input = in
			return &cp
		}
	case *Rank:
		if in := ApplyPreFilters(v.Input, script, decide); in != v.Input {
			cp := *v
			cp.Input = in
			return &cp
		}
	case *Distinct:
		if in := ApplyPreFilters(v.Input, script, decide); in != v.Input {
			return &Distinct{Input: in}
		}
	case *Limit:
		if in := ApplyPreFilters(v.Input, script, decide); in != v.Input {
			cp := *v
			cp.Input = in
			return &cp
		}
	case *Join:
		left := ApplyPreFilters(v.Left, script, decide)
		right := ApplyPreFilters(v.Right, script, decide)
		var d PreFilterDecision
		if fdef, ok := eligiblePreFilter(v, script); ok && decide != nil {
			d = decide(v.HumanTask, fdef, EstimateRows(left), EstimateRows(right))
			if d.Left || d.Right {
				cp := *v
				if d.Left {
					left = &PreFilter{Input: left, Task: fdef, Arg: v.LeftArg, Join: &cp, Left: true}
				}
				if d.Right {
					right = &PreFilter{Input: right, Task: fdef, Arg: v.RightArg, Join: &cp, Left: false}
				}
				cp.Left, cp.Right = left, right
				return &cp
			}
		}
		if left != v.Left || right != v.Right {
			cp := *v
			cp.Left, cp.Right = left, right
			return &cp
		}
	}
	return n
}

// eligiblePreFilter resolves a join's declared feature filter: a unary
// boolean task the planner can apply to each side's join argument.
func eligiblePreFilter(j *Join, script *qlang.Script) (*qlang.TaskDef, bool) {
	if j.HumanTask == nil || j.HumanTask.PreFilterTask == "" {
		return nil, false
	}
	fdef, ok := script.Task(j.HumanTask.PreFilterTask)
	if !ok || len(fdef.Params) != 1 {
		return nil, false
	}
	if len(fdef.Returns) != 1 || fdef.Returns[0].Kind != relation.KindBool {
		return nil, false
	}
	return fdef, true
}

// EstimateRows gives a plan-time cardinality estimate for cost
// decisions. Base tables report their current size; filters are assumed
// non-reducing (conservative: overestimating inputs only makes a
// pre-filter look more attractive on the side it protects and is
// corrected by the executor's mid-query re-check); joins multiply.
func EstimateRows(n Node) int {
	switch v := n.(type) {
	case *Scan:
		return v.Table.Len()
	case *Join:
		return EstimateRows(v.Left) * EstimateRows(v.Right)
	case *Limit:
		est := EstimateRows(v.Input)
		if v.N < est {
			return v.N
		}
		return est
	default:
		children := n.Children()
		if len(children) == 0 {
			return 0
		}
		return EstimateRows(children[0])
	}
}
