package qlang

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

// fuzzSeeds mixes the valid statements the parser tests exercise with
// the malformed ones they expect to fail, so the fuzzer starts from both
// sides of the grammar.
var fuzzSeeds = []string{
	"SELECT * FROM t",
	"SELECT a FROM t WHERE a = 1 OR b = 2 AND NOT c = 3",
	"SELECT a FROM t WHERE a + 2 * 3 = 7",
	"SELECT DISTINCT t.a AS x, rate(t.b) score FROM items t WHERE rate(t.b) > 3 GROUP BY t.a ORDER BY score DESC, t.a LIMIT 10",
	"SELECT a FROM t WHERE a = 'x' AND b = 2.5 AND c = TRUE AND d = FALSE AND e = NULL AND f = -3",
	"SELECT a FROM t WHERE a = 'it''s'",
	"SELECT companyName, findCEO(companyName).CEO FROM companies",
	"SELECT celebrities.name, spottedstars.id FROM celebrities JOIN spottedstars ON samePerson(celebrities.image, spottedstars.image)",
	"SELECT a FROM t WHERE POSSIBLY isCat(img) AND isCat(img)",
	"SELECT a FROM t ORDER BY rank(img)",
	// Task definitions (full-script path).
	"TASK isCat(Image photo)\nRETURNS Bool:\n  TaskType: Filter\n  Text: \"Is this a cat? %s\", photo\n  Response: YesNo\n",
	"TASK samePerson(Image[] celebs, Image[] spotted)\nRETURNS Bool:\n  TaskType: JoinPredicate\n  Text: \"Match the pictures.\"\n  Response: JoinColumns(\"Celebrity\", celebs, \"Spotted Star\", spotted)\n",
	"TASK rateSquare(Image pic)\nRETURNS Int:\n  TaskType: Rating\n  Text: \"Rate %s\", pic\n  Response: Rating(1, 5)\n",
	// Malformed inputs the parser must reject without panicking.
	"SELECT a FROM",
	"SELECT f(a FROM t",
	"SELECT 'unterminated FROM t",
	"SELECT a FROM t WHERE @",
	"TASK (",
	"",
	";;",
}

// FuzzParse asserts two parser invariants over arbitrary input:
//
//  1. Parse never panics, whatever the bytes.
//  2. For accepted scripts, every query statement round-trips through
//     String(): parse → String → reparse is a fixed point (the same
//     property roundtrip_test.go checks over generated ASTs).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		for _, stmt := range script.Queries {
			text := stmt.String()
			again, err := ParseQuery(text)
			if err != nil {
				t.Fatalf("String() of accepted query does not reparse:\n  src: %q\n  str: %q\n  err: %v", src, text, err)
			}
			if got := again.String(); got != text {
				t.Fatalf("String() not a fixed point:\n  first:  %q\n  second: %q", text, got)
			}
		}
		// Accepted task definitions must at least be internally
		// consistent enough to re-register.
		for _, def := range script.Tasks {
			if strings.TrimSpace(def.Name) == "" {
				t.Fatalf("accepted task with empty name from %q", src)
			}
		}
	})
}

// FuzzQueryFingerprint checks the plan cache's front end against the
// parser. For any text ParseQuery accepts:
//
//  1. NormalizeQuery's one-pass literal values equal the values of
//     CollectStmtLiterals, in order.
//  2. The text with other values at the same literal tokens has the same
//     fingerprint, its values are the new ones, and it parses to the
//     same statement: its String() matches once its literals carry the
//     first text's values. So a cache hit may run the first text's plan
//     with the second text's values.
func FuzzQueryFingerprint(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Add("SELECT a FROM t WHERE a >= 1 AND a < 2.5 AND b = 'x' LIMIT 4")
	f.Add("SELECT f(a, 3).F, a * -2 FROM t GROUP BY a ORDER BY g(a, 'k') DESC")
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := ParseQuery(src)
		if err != nil {
			return
		}
		fp, lits, err := NormalizeQuery(nil, src)
		if err != nil {
			t.Fatalf("accepted query does not fingerprint: %q: %v", src, err)
		}
		want := CollectStmtLiterals(stmt)
		if !sameValues(lits, literalValues(want)) {
			t.Fatalf("one-pass literals %v, statement literals %v, for %q", lits, literalValues(want), src)
		}

		other, subs := substituteLiterals(t, src)
		fp2, lits2, err := NormalizeQuery(nil, other)
		if err != nil || string(fp2) != string(fp) {
			t.Fatalf("substituted text fingerprints differently:\n  %q -> %q\n  %q -> %q (%v)", src, fp, other, fp2, err)
		}
		if !sameValues(lits2, subs) {
			t.Fatalf("substituted literals %v, want %v, for %q", lits2, subs, other)
		}
		stmt2, err := ParseQuery(other)
		if err != nil {
			t.Fatalf("substituted text does not parse: %q: %v", other, err)
		}
		got := CollectStmtLiterals(stmt2)
		if len(got) != len(want) {
			t.Fatalf("substituted statement has %d literals, want %d: %q", len(got), len(want), other)
		}
		for i, l := range got {
			l.Value = want[i].Value
		}
		if stmt2.String() != stmt.String() {
			t.Fatalf("same fingerprint, different shape:\n  %q\n  %q", stmt.String(), stmt2.String())
		}
	})
}

// substituteLiterals rewrites every literal token of src that yields a
// value with another literal of the same class, and returns the new
// text with the values it now holds.
func substituteLiterals(t *testing.T, src string) (string, []relation.Value) {
	t.Helper()
	l := NewLexer(src)
	var b strings.Builder
	var vals []relation.Value
	last, prevLimit := 0, false
	for {
		l.skipSpaceAndComments()
		start := l.pos
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("accepted query does not lex: %q: %v", src, err)
		}
		if tok.Kind == TokEOF {
			break
		}
		var repl string
		switch {
		case tok.Kind == TokNumber && !prevLimit && strings.Contains(tok.Text, "."):
			repl = "7.5"
			vals = append(vals, relation.NewFloat(7.5))
		case tok.Kind == TokNumber && !prevLimit:
			repl = "7"
			vals = append(vals, relation.NewInt(7))
		case tok.Kind == TokString:
			repl = "'z'"
			vals = append(vals, relation.NewString("z"))
		case tok.Kind == TokKeyword && (tok.Text == "TRUE" || tok.Text == "FALSE" || tok.Text == "NULL"):
			// Kept in the fingerprint: the value is part of the shape.
			vals = append(vals, keywordValue(tok.Text))
		}
		if repl != "" {
			b.WriteString(src[last:start])
			b.WriteString(repl)
			last = l.pos
		}
		prevLimit = tok.Kind == TokKeyword && tok.Text == "LIMIT"
	}
	b.WriteString(src[last:])
	return b.String(), vals
}

func keywordValue(kw string) relation.Value {
	switch kw {
	case "TRUE":
		return relation.NewBool(true)
	case "FALSE":
		return relation.NewBool(false)
	}
	return relation.Null
}

func literalValues(lits []*Literal) []relation.Value {
	out := make([]relation.Value, len(lits))
	for i, l := range lits {
		out[i] = l.Value
	}
	return out
}

// sameValues compares two value lists by kind and rendering.
func sameValues(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
