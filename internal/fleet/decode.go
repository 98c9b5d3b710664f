package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the push schema's JSON decoder: one scanner for exactly
// the values DecodePush and ParseTriage read — the envelope, the shadow
// gauges and the triage rows — with no reflection and no intermediate
// slice of rows. It accepts and rejects what encoding/json does for those
// Go types: a key names a field when it matches exactly or, failing
// that, under encoding/json's case folding; strings are unescaped with
// invalid UTF-8 replaced by U+FFFD; null leaves a field as it was; a
// value of the wrong type or an integer out of its field's range is an
// error; unknown keys are skipped, nesting up to encoding/json's limit;
// a repeated key's later value wins; and only the first value of the
// input counts.

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// errUnexpectedEnd reports input that ends inside a value.
var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// syntaxError reports malformed JSON at a byte offset of the input.
type syntaxError struct {
	msg string
	off int
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("invalid JSON at offset %d: %s", e.off, e.msg)
}

// typeError reports a well-formed value that does not fit the Go type it
// is decoded into: the wrong kind of value, or an integer out of range.
// A scanner returns one only after reading the whole value, so a caller
// that can set the error aside may go on scanning.
type typeError struct {
	value, into string
	off         int
}

func (e *typeError) Error() string {
	return fmt.Sprintf("cannot decode JSON %s into %s at offset %d", e.value, e.into, e.off)
}

// scanner reads JSON from data. Strings it returns alias data or scratch
// and are valid until the next string is read.
type scanner struct {
	data    []byte
	pos     int
	scratch []byte
}

// The fields of each object in the push schema, as JSON names and as
// encoding/json folds them.
var (
	pushNames   = []string{"version", "instance", "epoch", "seq", "base_seq", "dropped", "races", "shadow"}
	rowNames    = []string{"var", "kind", "first_site", "second_site", "first_thread", "second_thread", "count", "instances", "first_instance"}
	shadowNames = []string{"hits", "misses", "evicts", "vars"}

	pushFolded, rowFolded, shadowFolded = foldAll(pushNames), foldAll(rowNames), foldAll(shadowNames)
)

func foldAll(names []string) []string {
	folded := make([]string, len(names))
	for i, n := range names {
		folded[i] = string(appendFolded(nil, []byte(n)))
	}
	return folded
}

// fieldIndex returns the index of the field key names in names (folded:
// the same names folded), or -1 for an unknown key.
func fieldIndex(key []byte, names, folded []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	f := appendFolded(arr[:0], key)
	for i, n := range folded {
		if string(f) == n {
			return i
		}
	}
	return -1
}

// appendFolded appends in folded as encoding/json folds keys: each rune
// becomes the smallest rune of its case-folding orbit, so that "SEQ",
// "seq" and "ſeq" (long s) fold alike.
func appendFolded(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte.
func (s *scanner) peek() (byte, error) {
	s.ws()
	if s.pos >= len(s.data) {
		return 0, errUnexpectedEnd
	}
	return s.data[s.pos], nil
}

func (s *scanner) invalid(c byte, where string) error {
	return &syntaxError{msg: fmt.Sprintf("invalid character %q %s", c, where), off: s.pos}
}

// enter consumes the opening bracket of an array or object nesting at
// depth.
func (s *scanner) enter(depth int) error {
	if depth > maxDepth {
		return &syntaxError{msg: "exceeded max depth", off: s.pos}
	}
	s.pos++
	return nil
}

// member moves to the next member of the object whose opening brace
// (first) or previous member value was just read and returns its
// unescaped key, positioned at the value. ok is false at the closing
// brace, which is consumed.
func (s *scanner) member(first bool) (key []byte, ok bool, err error) {
	c, err := s.peek()
	if err != nil {
		return nil, false, err
	}
	if c == '}' {
		s.pos++
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, s.invalid(c, "after object key:value pair")
		}
		s.pos++
		if c, err = s.peek(); err != nil {
			return nil, false, err
		}
	}
	if c != '"' {
		return nil, false, s.invalid(c, "looking for beginning of object key string")
	}
	if key, err = s.str(); err != nil {
		return nil, false, err
	}
	if c, err = s.peek(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, s.invalid(c, "after object key")
	}
	s.pos++
	return key, true, nil
}

// element moves to the next element of the array whose opening bracket
// (first) or previous element was just read. ok is false at the closing
// bracket, which is consumed.
func (s *scanner) element(first bool) (ok bool, err error) {
	c, err := s.peek()
	if err != nil {
		return false, err
	}
	if c == ']' {
		s.pos++
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, s.invalid(c, "after array element")
		}
		s.pos++
	}
	return true, nil
}

// skip reads and discards one value, whose arrays and objects, if any,
// nest from depth.
func (s *scanner) skip(depth int) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		if err := s.enter(depth); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := s.member(first)
			if err != nil || !ok {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case '[':
		if err := s.enter(depth); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := s.element(first)
			if err != nil || !ok {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := s.token()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, err = s.number()
	return err
}

// mismatch reads the value starting with c, which the Go type into does
// not hold, and returns the *typeError for it (or the syntax error in
// it).
func (s *scanner) mismatch(c byte, into string, depth int) error {
	off := s.pos
	if err := s.skip(depth); err != nil {
		return err
	}
	value := "number"
	switch c {
	case '{':
		value = "object"
	case '[':
		value = "array"
	case '"':
		value = "string"
	case 't', 'f':
		value = "bool"
	}
	return &typeError{value: value, into: into, off: off}
}

func (s *scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if s.pos >= len(s.data) {
			return errUnexpectedEnd
		}
		if c := s.data[s.pos]; c != word[i] {
			return s.invalid(c, "in literal "+word)
		}
		s.pos++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads a number token and returns its bytes.
func (s *scanner) number() ([]byte, error) {
	start, d := s.pos, s.data
	digits := func(where string) error {
		if s.pos >= len(d) {
			return errUnexpectedEnd
		}
		if !isDigit(d[s.pos]) {
			return s.invalid(d[s.pos], where)
		}
		for s.pos < len(d) && isDigit(d[s.pos]) {
			s.pos++
		}
		return nil
	}
	if d[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(d) && d[s.pos] == '0' {
		s.pos++
	} else if err := digits("looking for beginning of value"); err != nil {
		return nil, err
	}
	if s.pos < len(d) && d[s.pos] == '.' {
		s.pos++
		if err := digits("after decimal point in numeric literal"); err != nil {
			return nil, err
		}
	}
	if s.pos < len(d) && (d[s.pos] == 'e' || d[s.pos] == 'E') {
		s.pos++
		if s.pos < len(d) && (d[s.pos] == '+' || d[s.pos] == '-') {
			s.pos++
		}
		if err := digits("in exponent of numeric literal"); err != nil {
			return nil, err
		}
	}
	return d[start:s.pos], nil
}

// token reads a string token and returns its contents between the
// quotes; clean reports that they need no unescaping.
func (s *scanner) token() (raw []byte, clean bool, err error) {
	d := s.data
	start := s.pos + 1
	clean = true
	for i := start; i < len(d); {
		if plain[d[i]] {
			i++
			continue
		}
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], clean, nil
		case c == '\\':
			clean = false
			if i+1 >= len(d) {
				return nil, false, errUnexpectedEnd
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				i += 2
				for end := i + 4; i < end; i++ {
					if i >= len(d) {
						return nil, false, errUnexpectedEnd
					}
					if !isHex(d[i]) {
						s.pos = i
						return nil, false, s.invalid(d[i], "in \\u hexadecimal character escape")
					}
				}
			default:
				s.pos = i + 1
				return nil, false, s.invalid(d[i+1], "in string escape code")
			}
		case c < ' ':
			s.pos = i
			return nil, false, s.invalid(c, "in string literal")
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				clean = false
			}
			i += size
		}
	}
	return nil, false, errUnexpectedEnd
}

// plain marks the bytes a string token holds as they are: ASCII other
// than the quote, the backslash and control characters.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str reads a string token and returns it unescaped.
func (s *scanner) str() ([]byte, error) {
	raw, clean, err := s.token()
	if err != nil || clean {
		return raw, err
	}
	b := s.scratch[:0]
	for r := 0; r < len(raw); {
		switch c := raw[r]; {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(raw[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(raw[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	s.scratch = b
	return b, nil
}

// getu4 decodes the \uXXXX escape at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// The typed readers below decode one value into a field of their Go
// type. null leaves the field as it was; a value of another kind is a
// *typeError.

func (s *scanner) uintValue(dst *uint64, bits, depth int) error {
	c, err := s.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return s.literal("null")
	case c != '-' && !isDigit(c):
		return s.mismatch(c, "uint"+strconv.Itoa(bits), depth)
	}
	off := s.pos
	num, err := s.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseUint(string(num), 10, bits)
	if err != nil {
		return &typeError{value: "number " + string(num), into: "uint" + strconv.Itoa(bits), off: off}
	}
	*dst = v
	return nil
}

func (s *scanner) uint32Value(dst *uint32, depth int) error {
	v := uint64(*dst)
	err := s.uintValue(&v, 32, depth)
	*dst = uint32(v)
	return err
}

func (s *scanner) intValue(dst *int, depth int) error {
	c, err := s.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return s.literal("null")
	case c != '-' && !isDigit(c):
		return s.mismatch(c, "int", depth)
	}
	off := s.pos
	num, err := s.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return &typeError{value: "number " + string(num), into: "int", off: off}
	}
	*dst = int(v)
	return nil
}

// strValue reads a string value; set is false for null.
func (s *scanner) strValue(depth int) (b []byte, set bool, err error) {
	c, err := s.peek()
	switch {
	case err != nil:
		return nil, false, err
	case c == 'n':
		return nil, false, s.literal("null")
	case c != '"':
		return nil, false, s.mismatch(c, "string", depth)
	}
	b, err = s.str()
	return b, err == nil, err
}

// push decodes the push object at the start of the input into p and folds
// the rows of its triage list into rows, which each races member clears
// first: a repeated races key replaces the earlier list, as it would a
// raw message. races reports a races member. A type error in the list or
// a row the fold rejects is returned as bad, so that the envelope checks
// come first; any other error as err.
func (s *scanner) push(p *Push, rows map[TriageKey]TriageEntry) (races bool, bad, err error) {
	c, err := s.peek()
	switch {
	case err != nil:
		return false, nil, err
	case c == 'n':
		return false, nil, s.literal("null")
	case c != '{':
		return false, nil, s.mismatch(c, "push", 1)
	}
	s.enter(1)
	for first := true; ; first = false {
		key, ok, err := s.member(first)
		if err != nil || !ok {
			return races, bad, err
		}
		switch fieldIndex(key, pushNames, pushFolded) {
		case 0:
			err = s.intValue(&p.Version, 2)
		case 1:
			var b []byte
			var set bool
			if b, set, err = s.strValue(2); set {
				p.Instance = string(b)
			}
		case 2:
			err = s.uintValue(&p.Epoch, 64, 2)
		case 3:
			err = s.uintValue(&p.Seq, 64, 2)
		case 4:
			err = s.uintValue(&p.BaseSeq, 64, 2)
		case 5:
			err = s.uintValue(&p.Dropped, 64, 2)
		case 6:
			clear(rows)
			races = true
			bad, err = s.triage(rows, p.Instance, 2)
		case 7:
			err = s.shadow(&p.Shadow, 2)
		default:
			err = s.skip(2)
		}
		if err != nil {
			return false, nil, err
		}
	}
}

// shadow decodes a shadow-gauges value into *dst, allocating it if it is
// nil; null sets it to nil.
func (s *scanner) shadow(dst **ShadowGauges, depth int) error {
	c, err := s.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		*dst = nil
		return s.literal("null")
	case c != '{':
		return s.mismatch(c, "ShadowGauges", depth)
	}
	if *dst == nil {
		*dst = new(ShadowGauges)
	}
	g := *dst
	if err := s.enter(depth); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := s.member(first)
		if err != nil || !ok {
			return err
		}
		switch fieldIndex(key, shadowNames, shadowFolded) {
		case 0:
			err = s.uintValue(&g.Hits, 64, depth+1)
		case 1:
			err = s.uintValue(&g.Misses, 64, depth+1)
		case 2:
			err = s.uintValue(&g.Evicts, 64, depth+1)
		case 3:
			err = s.uintValue(&g.Vars, 64, depth+1)
		default:
			err = s.skip(depth + 1)
		}
		if err != nil {
			return err
		}
	}
}

// triage reads a triage list — an array of rows, or null for an empty
// one — and folds each row into out as it is read. A row whose
// first_instance equals instance holds that string. A value that is not
// a list, a row of the wrong type and a row the fold rejects are
// returned as bad, with the rest of the list read and checked only for
// syntax; any other error is returned as err.
func (s *scanner) triage(out map[TriageKey]TriageEntry, instance string, depth int) (bad, err error) {
	c, err := s.peek()
	switch {
	case err != nil:
		return nil, err
	case c == 'n':
		return nil, s.literal("null")
	case c != '[':
		err := s.mismatch(c, "triage list", depth)
		if isTypeError(err) {
			return fmt.Errorf("fleet: triage list: %w", err), nil
		}
		return nil, err
	}
	if err := s.enter(depth); err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		ok, err := s.element(i == 0)
		if err != nil || !ok {
			return bad, err
		}
		if bad != nil {
			if err := s.skip(depth + 1); err != nil {
				return nil, err
			}
			continue
		}
		var e TriageEntry
		if err := s.row(&e, instance, depth+1); err != nil {
			if !isTypeError(err) {
				return nil, err
			}
			bad = fmt.Errorf("fleet: triage entry %d: %w", i, err)
			continue
		}
		bad = foldRow(out, i, e)
	}
}

func isTypeError(err error) bool {
	_, ok := err.(*typeError)
	return ok
}

// row decodes one triage row into e. Its kind becomes the StaticKind
// constant when it is one, and its first_instance the string instance
// when equal to it; every other string is a copy.
func (s *scanner) row(e *TriageEntry, instance string, depth int) error {
	c, err := s.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return s.literal("null")
	case c != '{':
		return s.mismatch(c, "TriageEntry", depth)
	}
	if err := s.enter(depth); err != nil {
		return err
	}
	var bad error
	for first := true; ; first = false {
		key, ok, err := s.member(first)
		if err != nil {
			return err
		}
		if !ok {
			return bad
		}
		var b []byte
		var set bool
		switch fieldIndex(key, rowNames, rowFolded) {
		case 0:
			err = s.uint32Value(&e.Var, depth+1)
		case 1:
			if b, set, err = s.strValue(depth + 1); set {
				if k, ok := StaticKind(string(b)); ok {
					e.Kind = k
				} else {
					e.Kind = string(b)
				}
			}
		case 2:
			err = s.uint32Value(&e.FirstSite, depth+1)
		case 3:
			err = s.uint32Value(&e.SecondSite, depth+1)
		case 4:
			err = s.uint32Value(&e.FirstThread, depth+1)
		case 5:
			err = s.uint32Value(&e.SecondThread, depth+1)
		case 6:
			err = s.intValue(&e.Count, depth+1)
		case 7:
			err = s.intValue(&e.Instances, depth+1)
		case 8:
			if b, set, err = s.strValue(depth + 1); set {
				if string(b) == instance {
					e.FirstInstance = instance
				} else {
					e.FirstInstance = string(b)
				}
			}
		default:
			err = s.skip(depth + 1)
		}
		if err != nil {
			if !isTypeError(err) {
				return err
			}
			if bad == nil {
				bad = err
			}
		}
	}
}
