package qlang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// NormalizeQuery lexes src once and returns both halves of a plan-cache
// lookup: dst with src's fingerprint appended, and the values of its
// literals. The fingerprint strips literal values from the token stream,
// so queries differing only in constants collide: integer literals
// become "?i", float literals "?f", and string literals "?s";
// everything else — identifiers, keywords, punctuation — is kept
// verbatim (keywords upper-cased by the lexer) and joined with single
// spaces. The values come in token order, which for any text ParseQuery
// accepts is CollectStmtLiterals order, so equal fingerprints mean equal
// token streams apart from these values and the texts parse to the same
// shape.
//
// Two exceptions keep the fingerprint honest as a plan-cache key:
//
//   - The number following LIMIT stays verbatim and yields no value.
//     SelectStmt carries the limit as a plain int, not a Literal
//     expression, so a cached plan cannot be re-parameterized over it;
//     different limits must map to different cache entries.
//   - TRUE/FALSE/NULL are keywords, not literal tokens, and are kept —
//     boolean constants routinely flip which plan shape is sensible.
//     They still yield their values, as the parser makes them literals.
//
// A lexing error, or a number the parser would reject, is returned as
// an *Error; ParseQuery reports such text with its own position.
func NormalizeQuery(dst []byte, src string) ([]byte, []relation.Value, error) {
	l := NewLexer(src)
	var lits []relation.Value
	prevLimit := false
	for first := true; ; first = false {
		tok, err := l.Next()
		if err != nil {
			return dst, nil, err
		}
		if tok.Kind == TokEOF {
			return dst, lits, nil
		}
		if !first {
			dst = append(dst, ' ')
		}
		switch {
		case tok.Kind == TokNumber && !prevLimit:
			v, isFloat, ok := parseNumber(tok.Text)
			if !ok {
				return dst, nil, &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf("bad number %q", tok.Text)}
			}
			if isFloat {
				dst = append(dst, "?f"...)
			} else {
				dst = append(dst, "?i"...)
			}
			lits = append(lits, v)
		case tok.Kind == TokString:
			dst = append(dst, "?s"...)
			lits = append(lits, relation.NewString(tok.Text))
		default:
			dst = append(dst, tok.Text...)
			if tok.Kind == TokKeyword {
				switch tok.Text {
				case "TRUE":
					lits = append(lits, relation.NewBool(true))
				case "FALSE":
					lits = append(lits, relation.NewBool(false))
				case "NULL":
					lits = append(lits, relation.Null)
				}
			}
		}
		prevLimit = tok.Kind == TokKeyword && tok.Text == "LIMIT"
	}
}

// parseNumber reads a number token as the parser does: a float when it
// holds a '.', an int otherwise.
func parseNumber(text string) (v relation.Value, isFloat, ok bool) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		return relation.NewFloat(f), true, err == nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	return relation.NewInt(i), false, err == nil
}

// CollectStmtLiterals walks a parsed statement in a fixed order — select
// items, WHERE, GROUP BY, ORDER BY — and returns every *Literal it
// contains. The order is the literals' token order, so it is the order
// in which NormalizeQuery returns their values; the plan cache relies on
// that to number a cached program's parameters.
func CollectStmtLiterals(stmt *SelectStmt) []*Literal {
	var out []*Literal
	for _, it := range stmt.Items {
		out = collectExprLiterals(it.Expr, out)
	}
	out = collectExprLiterals(stmt.Where, out)
	for _, e := range stmt.GroupBy {
		out = collectExprLiterals(e, out)
	}
	for _, o := range stmt.OrderBy {
		out = collectExprLiterals(o.Expr, out)
	}
	return out
}

func collectExprLiterals(e Expr, out []*Literal) []*Literal {
	switch v := e.(type) {
	case nil:
		return out
	case *Literal:
		return append(out, v)
	case *Binary:
		out = collectExprLiterals(v.L, out)
		return collectExprLiterals(v.R, out)
	case *Unary:
		return collectExprLiterals(v.X, out)
	case *Call:
		for _, a := range v.Args {
			out = collectExprLiterals(a, out)
		}
		return out
	default: // *ColumnRef, *Star carry no literals
		return out
	}
}
