package sqldb

import (
	"fmt"
	"strings"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // operators and punctuation
	tokKeyword // reserved words, upper-cased
)

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string // keyword text is upper-cased; ident text preserves case
	pos  int
}

// keywords reserved by the dialect. Anything else scans as an identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "IS": true, "NULL": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "ASC": true,
	"DESC": true, "TRUE": true, "FALSE": true, "DISTINCT": true,
	"BETWEEN": true, "LIKE": true, "HAVING": true, "OFFSET": true,
	"UNION": true, "ALL": true,
}

// lexer scans a SQL string into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src, returning the token stream terminated by tokEOF.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.pos++
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			word := l.src[start:l.pos]
			if up := strings.ToUpper(word); keywords[up] {
				l.emit(tokKeyword, up, start)
			} else {
				l.emit(tokIdent, word, start)
			}
		case c >= '0' && c <= '9' || c == '.' && l.peekDigit(1):
			l.pos++
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
				l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
				((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
				l.pos++
			}
			l.emit(tokNumber, l.src[start:l.pos], start)
		case c == '\'':
			l.pos++
			var b strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("%w: unterminated string literal at offset %d", ErrParse, start)
				}
				if l.src[l.pos] == '\'' {
					// '' is an escaped quote inside a string literal.
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						b.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				b.WriteByte(l.src[l.pos])
				l.pos++
			}
			l.emit(tokString, b.String(), start)
		case c == '"':
			// Double-quoted identifier.
			l.pos++
			end := strings.IndexByte(l.src[l.pos:], '"')
			if end < 0 {
				return nil, fmt.Errorf("%w: unterminated quoted identifier at offset %d", ErrParse, start)
			}
			l.emit(tokIdent, l.src[l.pos:l.pos+end], start)
			l.pos += end + 1
		default:
			sym, n := scanSymbol(l.src[l.pos:])
			if n == 0 {
				return nil, fmt.Errorf("%w: unexpected character %q at offset %d", ErrParse, c, l.pos)
			}
			l.pos += n
			l.emit(tokSymbol, sym, start)
		}
	}
}

func (l *lexer) emit(k tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		case '-':
			// "--" line comment.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
				nl := strings.IndexByte(l.src[l.pos:], '\n')
				if nl < 0 {
					l.pos = len(l.src)
				} else {
					l.pos += nl + 1
				}
				continue
			}
			return
		default:
			return
		}
	}
}

func (l *lexer) peekDigit(off int) bool {
	return l.pos+off < len(l.src) && isDigit(l.src[l.pos+off])
}

// scanSymbol matches the longest operator/punctuation prefix of s.
func scanSymbol(s string) (string, int) {
	two := []string{"<=", ">=", "<>", "!=", "||"}
	if len(s) >= 2 {
		for _, t := range two {
			if s[:2] == t {
				return t, 2
			}
		}
	}
	switch s[0] {
	case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', ';':
		return s[:1], 1
	}
	return "", 0
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
