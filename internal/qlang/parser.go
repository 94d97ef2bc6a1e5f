package qlang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
}

// NewParser tokenizes src and returns a parser.
func NewParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Parse parses a whole script of TASK definitions and SELECT queries.
func Parse(src string) (*Script, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	script := &Script{}
	for {
		for p.acceptPunct(";") {
		}
		t := p.peek()
		switch {
		case t.Kind == TokEOF:
			return script, nil
		case t.Kind == TokKeyword && t.Text == "TASK":
			task, err := p.parseTask()
			if err != nil {
				return nil, err
			}
			script.Tasks = append(script.Tasks, task)
		case t.Kind == TokKeyword && t.Text == "SELECT":
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			script.Queries = append(script.Queries, q)
		default:
			return nil, p.errf("expected TASK or SELECT, got %s %q", t.Kind, t.Text)
		}
	}
}

// ParseQuery parses a single SELECT statement.
func ParseQuery(src string) (*SelectStmt, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	if t := p.peek(); t.Kind != TokEOF {
		return nil, p.errf("trailing input after query: %q", t.Text)
	}
	return q, nil
}

// ParseTaskDef parses a single TASK definition.
func ParseTaskDef(src string) (*TaskDef, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	task, err := p.parseTask()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind != TokEOF {
		return nil, p.errf("trailing input after task: %q", t.Text)
	}
	return task, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) peekAt(off int) Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+off]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	t := p.peek()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) acceptPunct(s string) bool {
	if t := p.peek(); t.Kind == TokPunct && t.Text == s {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %q", s, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, got %s %q", t.Kind, t.Text)
	}
	p.next()
	return t.Text, nil
}

func (p *Parser) expectString() (string, error) {
	t := p.peek()
	if t.Kind != TokString {
		return "", p.errf("expected string literal, got %s %q", t.Kind, t.Text)
	}
	p.next()
	return t.Text, nil
}

func (p *Parser) expectNumber() (string, error) {
	t := p.peek()
	neg := false
	if t.Kind == TokPunct && t.Text == "-" {
		p.next()
		neg = true
		t = p.peek()
	}
	if t.Kind != TokNumber {
		return "", p.errf("expected number, got %s %q", t.Kind, t.Text)
	}
	p.next()
	if neg {
		return "-" + t.Text, nil
	}
	return t.Text, nil
}

// --- SELECT parsing ---

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &SelectStmt{Limit: -1}
	q.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Items = append(q.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name}
		if t := p.peek(); t.Kind == TokIdent {
			ref.Alias = t.Text
			p.next()
		} else if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = alias
		}
		q.From = append(q.From, ref)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		numText, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(numText)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", numText)
		}
		q.Limit = n
	}
	return q, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptPunct("*") {
		return SelectItem{Expr: &Star{}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent {
		item.Alias = t.Text
		p.next()
	}
	return item, nil
}

// --- expression parsing (precedence climbing) ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	// POSSIBLY marks an approximate predicate (CIDR companion paper):
	// the engine evaluates it with a single assignment instead of full
	// redundancy, trading accuracy for cost — useful as a cheap screen
	// before expensive operators.
	if p.acceptKeyword("POSSIBLY") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "POSSIBLY", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.acceptPunct(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		case p.acceptPunct("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "*", L: l, R: r}
		case p.acceptPunct("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptPunct("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Value: relation.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &Literal{Value: relation.NewInt(i)}, nil
	case t.Kind == TokString:
		p.next()
		return &Literal{Value: relation.NewString(t.Text)}, nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		p.next()
		return &Literal{Value: relation.NewBool(true)}, nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		p.next()
		return &Literal{Value: relation.NewBool(false)}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.next()
		return &Literal{Value: relation.Null}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errf("unexpected token %q in expression", t.Text)
	}
}

// parseIdentExpr handles column references, qualified references, and
// UDF calls with optional .Field projection.
func (p *Parser) parseIdentExpr() (Expr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptPunct("(") {
		call := &Call{Name: name}
		if !p.acceptPunct(")") {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		if p.acceptPunct(".") {
			field, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			call.Field = field
		}
		return call, nil
	}
	if p.acceptPunct(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

// --- TASK parsing ---

func (p *Parser) parseTask() (*TaskDef, error) {
	if err := p.expectKeyword("TASK"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	task := &TaskDef{Name: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.acceptPunct(")") {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			task.Params = append(task.Params, param)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("RETURNS"); err != nil {
		return nil, err
	}
	if p.acceptPunct("(") {
		for {
			typeName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := relation.ParseKind(typeName)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			fieldName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			task.Returns = append(task.Returns, ReturnField{Name: fieldName, Kind: kind})
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	} else {
		typeName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := relation.ParseKind(typeName)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		task.Returns = []ReturnField{{Kind: kind}}
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	seenType := false
	for {
		t := p.peek()
		if t.Kind != TokIdent || p.peekAt(1).Text != ":" {
			break
		}
		field := t.Text
		p.next() // field name
		p.next() // colon
		switch strings.ToLower(field) {
		case "tasktype":
			typeName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			tt, err := ParseTaskType(typeName)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			task.Type = tt
			seenType = true
		case "text":
			text, err := p.expectString()
			if err != nil {
				return nil, err
			}
			task.Text = text
			for p.acceptPunct(",") {
				arg, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if _, ok := task.Param(arg); !ok {
					return nil, p.errf("Text argument %q is not a task parameter", arg)
				}
				task.TextArgs = append(task.TextArgs, arg)
			}
		case "response":
			resp, err := p.parseResponse(task)
			if err != nil {
				return nil, err
			}
			task.Response = resp
		case "price":
			numText, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			cents, err := strconv.ParseInt(numText, 10, 64)
			if err != nil || cents < 0 {
				return nil, p.errf("bad Price %q (cents)", numText)
			}
			task.PriceCents = cents
		case "assignments":
			numText, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(numText)
			if err != nil || n < 1 {
				return nil, p.errf("bad Assignments %q", numText)
			}
			task.Assignments = n
		case "batch":
			numText, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(numText)
			if err != nil || n < 1 {
				return nil, p.errf("bad Batch %q", numText)
			}
			task.BatchSize = n
		case "prefilter":
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			task.PreFilterTask = name
		case "compare":
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			task.CompareTask = name
		case "backend":
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			task.Backend = name
		case "minassignments":
			numText, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(numText)
			if err != nil || n < 1 {
				return nil, p.errf("bad MinAssignments %q", numText)
			}
			task.MinAssignments = n
		case "infer":
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			task.Infer = strings.ToLower(name)
		case "groupsize":
			numText, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(numText)
			if err != nil || n < 2 {
				return nil, p.errf("bad GroupSize %q (need ≥ 2)", numText)
			}
			task.GroupSize = n
		case "share":
			// Yes/No read as identifiers, but true/false/on are SQL
			// keywords to the lexer — accept either token kind here.
			var name string
			if t := p.peek(); t.Kind == TokKeyword {
				p.next()
				name = t.Text
			} else {
				var err error
				name, err = p.expectIdent()
				if err != nil {
					return nil, err
				}
			}
			switch strings.ToLower(name) {
			case "yes", "true", "on":
				task.Share = true
			case "no", "false", "off":
				task.Share = false
			default:
				return nil, p.errf("bad Share %q (want Yes or No)", name)
			}
		default:
			return nil, p.errf("unknown task field %q", field)
		}
	}
	if !seenType {
		return nil, p.errf("task %s is missing TaskType", task.Name)
	}
	if err := validateTask(task); err != nil {
		return nil, p.errf("%v", err)
	}
	return task, nil
}

func (p *Parser) parseParam() (Param, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return Param{}, p.errf("expected parameter type, got %q", t.Text)
	}
	p.next()
	kind, err := relation.ParseKind(t.Text)
	if err != nil {
		return Param{}, p.errf("%v", err)
	}
	param := Param{Kind: kind, IsList: strings.HasSuffix(t.Text, "[]")}
	if param.IsList {
		// Remember the element kind, not KindList, for list params:
		// Image[] means "list of images".
		elem, err := relation.ParseKind(strings.TrimSuffix(t.Text, "[]"))
		if err != nil {
			return Param{}, p.errf("%v", err)
		}
		param.Kind = elem
	}
	name, err := p.expectIdent()
	if err != nil {
		return Param{}, err
	}
	param.Name = name
	return param, nil
}

func (p *Parser) parseResponse(task *TaskDef) (Response, error) {
	// "Order" lexes as the ORDER keyword (of ORDER BY); accept it here
	// as the response kind name it also is.
	if p.acceptKeyword("ORDER") {
		return Response{Kind: ResponseOrder}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return Response{}, err
	}
	switch strings.ToLower(name) {
	case "form":
		resp := Response{Kind: ResponseForm}
		if err := p.expectPunct("("); err != nil {
			return Response{}, err
		}
		for {
			if err := p.expectPunct("("); err != nil {
				return Response{}, err
			}
			label, err := p.expectString()
			if err != nil {
				return Response{}, err
			}
			if err := p.expectPunct(","); err != nil {
				return Response{}, err
			}
			typeName, err := p.expectIdent()
			if err != nil {
				return Response{}, err
			}
			kind, err := relation.ParseKind(typeName)
			if err != nil {
				return Response{}, p.errf("%v", err)
			}
			if err := p.expectPunct(")"); err != nil {
				return Response{}, err
			}
			resp.Fields = append(resp.Fields, FormField{Label: label, Kind: kind})
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return Response{}, err
		}
		return resp, nil
	case "joincolumns":
		resp := Response{Kind: ResponseJoinColumns}
		if err := p.expectPunct("("); err != nil {
			return Response{}, err
		}
		var parts [4]string
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				s, err := p.expectString()
				if err != nil {
					return Response{}, err
				}
				parts[i] = s
			} else {
				id, err := p.expectIdent()
				if err != nil {
					return Response{}, err
				}
				if _, ok := task.Param(id); !ok {
					return Response{}, p.errf("JoinColumns argument %q is not a task parameter", id)
				}
				parts[i] = id
			}
			if i < 3 {
				if err := p.expectPunct(","); err != nil {
					return Response{}, err
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return Response{}, err
		}
		resp.LeftLabel, resp.LeftParam = parts[0], parts[1]
		resp.RightLabel, resp.RightParam = parts[2], parts[3]
		return resp, nil
	case "yesno":
		return Response{Kind: ResponseYesNo}, nil
	case "rating":
		resp := Response{Kind: ResponseRating, ScaleMin: 1, ScaleMax: 7}
		if p.acceptPunct("(") {
			lo, err := p.expectNumber()
			if err != nil {
				return Response{}, err
			}
			if err := p.expectPunct(","); err != nil {
				return Response{}, err
			}
			hi, err := p.expectNumber()
			if err != nil {
				return Response{}, err
			}
			if err := p.expectPunct(")"); err != nil {
				return Response{}, err
			}
			resp.ScaleMin, _ = strconv.Atoi(lo)
			resp.ScaleMax, _ = strconv.Atoi(hi)
			if resp.ScaleMin >= resp.ScaleMax {
				return Response{}, p.errf("Rating scale %d..%d is empty", resp.ScaleMin, resp.ScaleMax)
			}
		}
		return resp, nil
	case "order":
		return Response{Kind: ResponseOrder}, nil
	case "choice":
		resp := Response{Kind: ResponseChoice}
		if err := p.expectPunct("("); err != nil {
			return Response{}, err
		}
		for {
			s, err := p.expectString()
			if err != nil {
				return Response{}, err
			}
			resp.Options = append(resp.Options, s)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return Response{}, err
		}
		if len(resp.Options) < 2 {
			return Response{}, p.errf("Choice needs at least two options")
		}
		return resp, nil
	default:
		return Response{}, p.errf("unknown Response kind %q", name)
	}
}

// validateTask enforces cross-field consistency rules.
func validateTask(t *TaskDef) error {
	nPlaceholders := strings.Count(t.Text, "%s")
	if t.Text != "" && nPlaceholders != len(t.TextArgs) {
		return fmt.Errorf("task %s: Text has %d %%s placeholders but %d arguments", t.Name, nPlaceholders, len(t.TextArgs))
	}
	if t.PreFilterTask != "" && t.Type != TaskJoinPredicate {
		return fmt.Errorf("task %s: PreFilter only applies to JoinPredicate tasks", t.Name)
	}
	if t.CompareTask != "" && t.Type != TaskRating {
		return fmt.Errorf("task %s: Compare only applies to Rating tasks", t.Name)
	}
	if t.GroupSize != 0 && t.Type != TaskRank && t.Type != TaskRating {
		return fmt.Errorf("task %s: GroupSize only applies to Rank and Rating tasks", t.Name)
	}
	if t.Infer != "" && t.Infer != "majority" && t.Infer != "em" {
		return fmt.Errorf("task %s: bad Infer %q (want majority or em)", t.Name, t.Infer)
	}
	if t.MinAssignments != 0 && t.Assignments != 0 && t.MinAssignments > t.Assignments {
		return fmt.Errorf("task %s: MinAssignments %d exceeds Assignments %d", t.Name, t.MinAssignments, t.Assignments)
	}
	// An answer tuple's fields are looked up by exact name, and a Form's
	// labels name its inputs, so neither may repeat a name.
	for i, r := range t.Returns {
		for _, prev := range t.Returns[:i] {
			if prev.Name == r.Name {
				return fmt.Errorf("task %s: RETURNS repeats field %q", t.Name, r.Name)
			}
		}
	}
	for i, f := range t.Response.Fields {
		for _, prev := range t.Response.Fields[:i] {
			if prev.Label == f.Label {
				return fmt.Errorf("task %s: Form repeats field %q", t.Name, f.Label)
			}
		}
	}
	switch t.Type {
	case TaskJoinPredicate:
		if t.Response.Kind != ResponseJoinColumns && t.Response.Kind != ResponseYesNo {
			return fmt.Errorf("task %s: JoinPredicate requires a JoinColumns or YesNo response", t.Name)
		}
		if len(t.Returns) != 1 || t.Returns[0].Kind != relation.KindBool {
			return fmt.Errorf("task %s: JoinPredicate must RETURN Bool", t.Name)
		}
	case TaskFilter:
		if len(t.Returns) != 1 || t.Returns[0].Kind != relation.KindBool {
			return fmt.Errorf("task %s: Filter must RETURN Bool", t.Name)
		}
	case TaskRating:
		if t.Response.Kind != ResponseRating {
			return fmt.Errorf("task %s: Rating task requires a Rating response", t.Name)
		}
	case TaskRank:
		if t.Response.Kind != ResponseOrder {
			return fmt.Errorf("task %s: Rank task requires an Order response", t.Name)
		}
		if len(t.Returns) != 1 || t.Returns[0].Kind != relation.KindInt {
			return fmt.Errorf("task %s: Rank must RETURN Int (the position)", t.Name)
		}
	case TaskQuestion, TaskGenerative:
		if t.ReturnsTuple() && t.Response.Kind == ResponseForm {
			if len(t.Response.Fields) != len(t.Returns) {
				return fmt.Errorf("task %s: Form has %d fields but RETURNS %d", t.Name, len(t.Response.Fields), len(t.Returns))
			}
		}
	}
	return nil
}
