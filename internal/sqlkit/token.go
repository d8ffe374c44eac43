// Package sqlkit implements the SPJ SQL subset Hydra workloads use:
// SELECT over one or more tables with an AND-conjunction of range,
// equality, IN, BETWEEN, and foreign-key join predicates.
package sqlkit

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // identifiers lower-cased; operators literal; strings unquoted
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.lexIdent()
		case c >= '0' && c <= '9' || c == '.' && l.peekDigit():
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '-' && l.peekDigitAt(1):
			l.pos++
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
			last := &l.toks[len(l.toks)-1]
			last.text = "-" + last.text
			last.pos = start
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

// Identifiers are ASCII: the lexer reads bytes, and a byte of a
// multi-byte character read as a Latin-1 letter would lower-case into a
// replacement character the lexer then rejects, so the query's printed SQL
// would no longer parse.
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9'
}

func (l *lexer) peekDigit() bool { return l.peekDigitAt(1) }

func (l *lexer) peekDigitAt(n int) bool {
	return l.pos+n < len(l.src) && l.src[l.pos+n] >= '0' && l.src[l.pos+n] <= '9'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(l.src[start:l.pos]), pos: start})
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if text == "." {
		return fmt.Errorf("sqlkit: bad number at offset %d", start)
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: text, pos: start})
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlkit: unterminated string at offset %d", start)
}

func (l *lexer) lexSymbol() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		text := two
		if text == "!=" {
			text = "<>"
		}
		l.toks = append(l.toks, token{kind: tokSymbol, text: text, pos: start})
		return nil
	}
	switch c := l.src[l.pos]; c {
	case '=', '<', '>', ',', '(', ')', '*', ';', '.':
		l.pos++
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: start})
		return nil
	default:
		return fmt.Errorf("sqlkit: unexpected character %q at offset %d", c, start)
	}
}
