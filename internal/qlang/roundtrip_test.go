package qlang

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// randExpr builds a random well-formed expression of bounded depth.
// logical controls whether NOT/AND/OR may appear at this position: the
// grammar only admits them above the comparison level, so arithmetic
// and call-argument operands are generated non-logical (matching what
// the surface syntax can express without extra parentheses).
func randExpr(r *rand.Rand, depth int, cols []string, logical bool) Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return &Literal{Value: relation.NewInt(int64(r.Intn(100)))}
		case 1:
			return &Literal{Value: relation.NewString(randIdent(r))}
		case 2:
			return &Literal{Value: relation.NewBool(r.Intn(2) == 0)}
		default:
			return &ColumnRef{Name: cols[r.Intn(len(cols))]}
		}
	}
	top := 6
	if !logical {
		top = 4 // exclude the logical cases below
	}
	switch r.Intn(top) {
	case 0:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		return &Binary{Op: ops[r.Intn(len(ops))],
			L: randExpr(r, depth-1, cols, false), R: randExpr(r, depth-1, cols, false)}
	case 1:
		ops := []string{"+", "-", "*", "/"}
		return &Binary{Op: ops[r.Intn(len(ops))],
			L: randExpr(r, depth-1, cols, false), R: randExpr(r, depth-1, cols, false)}
	case 2:
		nArgs := r.Intn(3)
		call := &Call{Name: randName(r, "udf")}
		for i := 0; i < nArgs; i++ {
			call.Args = append(call.Args, randExpr(r, depth-1, cols, false))
		}
		if r.Intn(3) == 0 {
			call.Field = randName(r, "F")
		}
		return call
	case 3:
		return &ColumnRef{Table: "t", Name: cols[r.Intn(len(cols))]}
	case 4:
		ops := []string{"AND", "OR"}
		return &Binary{Op: ops[r.Intn(len(ops))],
			L: randExpr(r, depth-1, cols, true), R: randExpr(r, depth-1, cols, true)}
	default:
		return &Unary{Op: "NOT", X: randExpr(r, depth-1, cols, true)}
	}
}

func randIdent(r *rand.Rand) string {
	n := 1 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// randName draws prefix + randIdent, redrawing any name the lexer reads
// as a keyword ("F" + "rom" is FROM): a statement naming a field FROM
// is not well formed.
func randName(r *rand.Rand, prefix string) string {
	for {
		if name := prefix + randIdent(r); !isKeyword(name) {
			return name
		}
	}
}

func isKeyword(name string) bool {
	_, ok := keyword(name)
	return ok
}

// randStmt builds a random well-formed SELECT.
func randStmt(r *rand.Rand) *SelectStmt {
	cols := []string{"a", "b", "c"}
	s := &SelectStmt{Limit: -1, Distinct: r.Intn(3) == 0}
	nItems := 1 + r.Intn(3)
	for i := 0; i < nItems; i++ {
		item := SelectItem{Expr: randExpr(r, 2, cols, true)}
		if r.Intn(3) == 0 {
			item.Alias = randName(r, "x")
		}
		s.Items = append(s.Items, item)
	}
	s.From = []TableRef{{Name: "t"}}
	if r.Intn(2) == 0 {
		s.From = append(s.From, TableRef{Name: "u", Alias: "uu"})
	}
	if r.Intn(2) == 0 {
		s.Where = randExpr(r, 3, cols, true)
	}
	if r.Intn(4) == 0 {
		s.GroupBy = []Expr{randExpr(r, 1, cols, false)}
	}
	if r.Intn(3) == 0 {
		s.OrderBy = []OrderItem{{Expr: randExpr(r, 1, cols, false), Desc: r.Intn(2) == 0}}
	}
	if r.Intn(4) == 0 {
		s.Limit = r.Intn(50)
	}
	return s
}

// Property: rendering any well-formed statement and re-parsing it gives
// a statement that renders identically (parse∘print is a fixpoint).
func TestParserRoundTripProperty(t *testing.T) {
	roundTrips := func(t *testing.T, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		stmt := randStmt(r)
		text := stmt.String()
		parsed, err := ParseQuery(text)
		if err != nil {
			t.Logf("seed %d: %q failed to parse: %v", seed, text, err)
			return false
		}
		if parsed.String() != text {
			t.Logf("seed %d: fixpoint broken:\n  %s\n  %s", seed, text, parsed.String())
			return false
		}
		return true
	}
	// This seed once drew the field name From.
	t.Run("seed 5448510539668060876", func(t *testing.T) {
		if !roundTrips(t, 5448510539668060876) {
			t.Fail()
		}
	})
	f := func(seed int64) bool { return roundTrips(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: the lexer never panics and always terminates on arbitrary
// byte strings.
func TestLexerTotalProperty(t *testing.T) {
	f := func(input string) bool {
		toks, err := Tokenize(input)
		if err != nil {
			return true // rejecting is fine; crashing is not
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}
