// Package qlang implements Qurk's query language: a SQL dialect with
// human-powered UDFs (paper §3, Query 1 and Query 2) and the TASK
// definition language that describes how a UDF is rendered as a HIT
// (Task 1 and Task 2).
package qlang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokString
	TokNumber
	TokPunct
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokString:
		return "string"
	case TokNumber:
		return "number"
	case TokPunct:
		return "punctuation"
	default:
		return "token"
	}
}

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; strings are unquoted
	Line int
	Col  int
}

// keywords recognized case-insensitively in query and task bodies,
// each mapped to itself so a lookup yields the token text.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "ORDER", "GROUP", "BY",
		"LIMIT", "ASC", "DESC", "AS", "TASK", "RETURNS", "TRUE", "FALSE",
		"NULL", "POSSIBLY", "DISTINCT", "ON", "JOIN", "IS",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = 8

// keyword returns the keyword text spells in any letter case, without
// allocating. Keywords are ASCII, and an identifier's other bytes are
// Latin-1 letters that no upper-casing folds into ASCII, so text holding
// one is never a keyword.
func keyword(text string) (string, bool) {
	if len(text) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}

// Lexer tokenizes qlang source.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Error is a lexing or parsing error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("qlang: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

func (l *Lexer) errf(format string, args ...interface{}) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peekAt(1) == '-':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		// Allow [] suffix for list types like Image[].
		if l.peek() == '[' && l.peekAt(1) == ']' {
			l.advance()
			l.advance()
		}
		text := l.src[start:l.pos]
		if kw, ok := keyword(text); ok {
			tok.Kind, tok.Text = TokKeyword, kw
		} else {
			tok.Kind, tok.Text = TokIdent, text
		}
		return tok, nil
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && (l.peek() >= '0' && l.peek() <= '9' || l.peek() == '.') {
			l.advance()
		}
		tok.Kind, tok.Text = TokNumber, l.src[start:l.pos]
		return tok, nil
	case c == '\'' || c == '"':
		quote := c
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return tok, l.errf("unterminated string")
			}
			ch := l.advance()
			if ch == quote {
				// Doubled quote is an escaped quote, SQL style.
				if l.peek() == quote {
					l.advance()
					b.WriteByte(quote)
					continue
				}
				break
			}
			if ch == '\\' && l.pos < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '\'', '"':
					b.WriteByte(esc)
				default:
					b.WriteByte('\\')
					b.WriteByte(esc)
				}
				continue
			}
			b.WriteByte(ch)
		}
		tok.Kind, tok.Text = TokString, b.String()
		return tok, nil
	default:
		// Multi-byte punctuation first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "!=", "<=", ">=", "<>":
			l.advance()
			l.advance()
			if two == "<>" {
				two = "!="
			}
			tok.Kind, tok.Text = TokPunct, two
			return tok, nil
		}
		switch c {
		case ',', '.', '(', ')', '*', '=', '<', '>', ':', ';', '%', '+', '-', '/':
			l.advance()
			tok.Kind, tok.Text = TokPunct, string(c)
			return tok, nil
		}
		return tok, l.errf("unexpected character %q", string(rune(c)))
	}
}

// Tokenize lexes the entire input.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
