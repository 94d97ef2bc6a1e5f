package qlang

import (
	"testing"

	"repro/internal/relation"
)

func TestNormalizeQueryStripsLiterals(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{`SELECT v FROM t WHERE v < 10`, `SELECT v FROM t WHERE v < 999`, true},
		{`SELECT v FROM t WHERE name = 'alice'`, `SELECT v FROM t WHERE name = "bob"`, true},
		{`SELECT v FROM t WHERE v < 1.5`, `SELECT v FROM t WHERE v < 2.75`, true},
		// Int vs float literals are distinct placeholder classes.
		{`SELECT v FROM t WHERE v < 10`, `SELECT v FROM t WHERE v < 1.5`, false},
		// LIMIT operand is part of the key, not a placeholder.
		{`SELECT v FROM t LIMIT 5`, `SELECT v FROM t LIMIT 6`, false},
		{`SELECT v FROM t LIMIT 5`, `SELECT v FROM t LIMIT 5`, true},
		// Boolean keywords are not stripped.
		{`SELECT v FROM t WHERE ok = TRUE`, `SELECT v FROM t WHERE ok = FALSE`, false},
		// Case and whitespace don't matter; structure does.
		{`select V  from T where V<3`, `SELECT V FROM T WHERE V < 7`, true},
		{`SELECT v FROM t WHERE v < 3`, `SELECT v FROM t WHERE v > 3`, false},
	}
	for _, c := range cases {
		na, _, err := NormalizeQuery(nil, c.a)
		if err != nil {
			t.Fatalf("%q: %v", c.a, err)
		}
		nb, _, err := NormalizeQuery(nil, c.b)
		if err != nil {
			t.Fatalf("%q: %v", c.b, err)
		}
		if (string(na) == string(nb)) != c.same {
			t.Errorf("NormalizeQuery(%q)=%q vs NormalizeQuery(%q)=%q; want same=%v", c.a, na, c.b, nb, c.same)
		}
	}
}

func TestNormalizeQueryShape(t *testing.T) {
	got, lits, err := NormalizeQuery([]byte("key|"), `SELECT name FROM t WHERE age > 21 AND city = 'nyc' AND ok = TRUE AND r < -2.5 ORDER BY name LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	want := `key|SELECT name FROM t WHERE age > ?i AND city = ?s AND ok = TRUE AND r < - ?f ORDER BY name LIMIT 3`
	if string(got) != want {
		t.Errorf("normalized = %q, want %q", got, want)
	}
	wantLits := []relation.Value{relation.NewInt(21), relation.NewString("nyc"), relation.NewBool(true), relation.NewFloat(2.5)}
	if len(lits) != len(wantLits) {
		t.Fatalf("literals = %v, want %v", lits, wantLits)
	}
	for i, v := range wantLits {
		if lits[i].Kind() != v.Kind() || lits[i].Compare(v) != 0 {
			t.Errorf("literal[%d] = %v, want %v", i, lits[i], v)
		}
	}
	// A number the parser rejects is an error here too, so the caller
	// reports the parser's own.
	if _, _, err := NormalizeQuery(nil, `SELECT v FROM t WHERE v = 1.2.3`); err == nil {
		t.Error("a malformed number fingerprinted")
	}
}

func TestCollectStmtLiteralsLockstep(t *testing.T) {
	const a = `SELECT v, 7 FROM t WHERE v < 10 AND name = 'x' ORDER BY v LIMIT 2`
	const b = `SELECT v, 9 FROM t WHERE v < 42 AND name = 'y' ORDER BY v LIMIT 2`
	sa, err := ParseQuery(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseQuery(b)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := CollectStmtLiterals(sa), CollectStmtLiterals(sb)
	if len(la) != 3 || len(lb) != 3 {
		t.Fatalf("literal counts = %d, %d; want 3, 3", len(la), len(lb))
	}
	// Same fingerprint implies positional alignment: slot i in one maps
	// to slot i in the other.
	wantA := []string{"7", "10", "x"}
	wantB := []string{"9", "42", "y"}
	for i := range la {
		if got := la[i].Value.String(); got != wantA[i] {
			t.Errorf("a literal[%d] = %s, want %s", i, got, wantA[i])
		}
		if got := lb[i].Value.String(); got != wantB[i] {
			t.Errorf("b literal[%d] = %s, want %s", i, got, wantB[i])
		}
	}
}

// TestFormatBindsLiterals renders one expression with another
// execution's literal values, leaving the expression as written.
func TestFormatBindsLiterals(t *testing.T) {
	stmt, err := ParseQuery(`SELECT v FROM t WHERE v < 10 AND name = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	lits := CollectStmtLiterals(stmt)
	if len(lits) != 2 {
		t.Fatalf("literals = %d, want 2", len(lits))
	}
	b := literalMap{lits[0]: relation.NewInt(99), lits[1]: relation.NewString("it's")}
	if got, want := Format(stmt.Where, b), `((v < 99) AND (name = 'it''s'))`; got != want {
		t.Errorf("bound render = %q, want %q", got, want)
	}
	if got, want := stmt.Where.String(), `((v < 10) AND (name = 'x'))`; got != want {
		t.Errorf("plain render = %q, want %q", got, want)
	}
	if got := Format(stmt.Where, literalMap{}); got != stmt.Where.String() {
		t.Errorf("unbound render = %q, want %q", got, stmt.Where.String())
	}
}

// literalMap binds literals by identity.
type literalMap map[*Literal]relation.Value

func (m literalMap) Literal(l *Literal) (relation.Value, bool) {
	v, ok := m[l]
	return v, ok
}
