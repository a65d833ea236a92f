package bytecode

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"bohrium/internal/tensor"
)

// ErrParse wraps all assembler syntax errors.
var ErrParse = errors.New("bytecode: parse error")

// Parse assembles a textual byte-code listing into a Program. The grammar
// is the paper's listing format plus ".reg" declarations:
//
//	.reg a0 float64 10            # register a0: 10 float64 elements
//	BH_IDENTITY a0 [0:10:1] 0
//	BH_ADD a0 [0:10:1] a0 [0:10:1] 1
//	BH_ADD_REDUCE a1 a0 axis=0
//	BH_SYNC a0
//
// Views are optional ("I assume the view is the same for all registers",
// paper §3): a bare register name denotes the full contiguous 1-D view of
// its declaration. Registers used with explicit views need no declaration;
// they are auto-declared as float64 sized to the largest index touched.
// '#' starts a comment. Constants: integers ("3"), floats ("3.5", "1.0",
// "1e-3"), booleans ("true"/"false").
func Parse(src string) (*Program, error) {
	p, _, err := ParseNames(src)
	return p, err
}

// ParseNames is Parse that additionally returns the listing's register
// name → id mapping (declared and auto-declared registers alike). Hosts
// that address registers by their source name after execution — the bhd
// wire protocol's GET /arrays/{reg} — need the mapping because ids are
// assigned in declaration order, which a listing's names need not follow.
func ParseNames(src string) (*Program, map[string]RegID, error) {
	ps := &parseState{
		prog:     &Program{Instrs: make([]Instruction, 0, min(strings.Count(src, "\n")+1, maxPresizedInstrs))},
		declared: map[string]RegID{},
	}
	var tokBuf [16]string
	lineNo := 0
	for raw := range strings.SplitSeq(src, "\n") {
		lineNo++
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		tokens := fields(tokBuf[:0], line)
		if len(tokens) == 0 {
			continue
		}
		if err := ps.parseLine(tokens); err != nil {
			return nil, nil, fmt.Errorf("%w: line %d: %w", ErrParse, lineNo, err)
		}
	}
	// The declared map becomes the name mapping: auto-declared names
	// never collide with it (a later .reg of one is rejected).
	names := ps.declared
	for name, pend := range ps.pending {
		ps.prog.Regs[pend.id].Len = pend.maxHi
		names[name] = pend.id
	}
	return ps.prog, names, nil
}

// maxPresizedInstrs caps the instruction capacity ParseNames reserves
// from the listing's line count, so a body of blank lines cannot demand
// a large allocation up front; longer listings grow by append.
const maxPresizedInstrs = 1024

// fields appends the whitespace-separated fields of s to dst, splitting
// exactly where strings.Fields does (unicode.IsSpace) without allocating
// while dst has room.
func fields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); {
		c, size := s[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = c == ' ' || c-'\t' <= '\r'-'\t' // ' ', \t \n \v \f \r
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space:
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// MustParse is Parse for known-good sources in tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// pendingReg tracks a register that was used before (or without) an
// explicit declaration; its length becomes the largest index touched + 1.
type pendingReg struct {
	id    RegID
	maxHi int
}

type parseState struct {
	prog     *Program
	declared map[string]RegID
	pending  map[string]*pendingReg // nil until a register is auto-declared
	dims     intSlab
}

// parseLine assembles one listing line, already split into fields.
func (ps *parseState) parseLine(tokens []string) error {
	if strings.HasPrefix(tokens[0], ".") {
		return ps.parseDirective(tokens)
	}
	op, err := ParseOpcode(tokens[0])
	if err != nil {
		return err
	}
	in := Instruction{Op: op}
	rest := tokens[1:]

	// Trailing axis= applies to reductions and scans.
	if len(rest) > 0 && strings.HasPrefix(rest[len(rest)-1], "axis=") {
		axis, err := strconv.Atoi(strings.TrimPrefix(rest[len(rest)-1], "axis="))
		if err != nil {
			return fmt.Errorf("bad axis: %w", err)
		}
		in.Axis = axis
		rest = rest[:len(rest)-1]
	}

	// Every operand is parsed before the count is checked, so a bad
	// fourth operand reports its own error first.
	slots := [...]*Operand{&in.Out, &in.In1, &in.In2}
	n := 0
	for len(rest) > 0 {
		opnd, used, err := ps.parseOperand(rest)
		if err != nil {
			return err
		}
		if n < len(slots) {
			*slots[n] = opnd
		}
		n++
		rest = rest[used:]
	}
	if op != OpNone && n == 0 {
		return fmt.Errorf("%s needs a result operand", op)
	}
	if n > len(slots) {
		return fmt.Errorf("%s has %d operands, max 3", op, n)
	}
	ps.prog.Emit(in)
	return nil
}

func (ps *parseState) parseDirective(tokens []string) error {
	switch tokens[0] {
	case ".in", ".out":
		if len(tokens) != 2 {
			return fmt.Errorf("%s wants one register name", tokens[0])
		}
		id, ok := ps.declared[tokens[1]]
		if !ok {
			return fmt.Errorf("%s %s must follow its .reg declaration", tokens[0], tokens[1])
		}
		if tokens[0] == ".in" {
			ps.prog.MarkInput(id)
		} else {
			ps.prog.MarkOutput(id)
		}
		return nil
	case ".reg":
		if len(tokens) != 4 {
			return fmt.Errorf(".reg wants 'name dtype len', got %d tokens", len(tokens)-1)
		}
		name := tokens[1]
		dt, err := tensor.ParseDType(tokens[2])
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(tokens[3])
		if err != nil || n < 0 {
			return fmt.Errorf("bad register length %q", tokens[3])
		}
		if _, dup := ps.declared[name]; dup {
			return fmt.Errorf("register %s declared twice", name)
		}
		if _, used := ps.pending[name]; used {
			return fmt.Errorf("register %s used before its declaration", name)
		}
		id := ps.prog.NewReg(dt, n)
		ps.declared[name] = id
		return nil
	default:
		return fmt.Errorf("unknown directive %s", tokens[0])
	}
}

// parseOperand consumes one operand from tokens, returning it and the
// number of tokens consumed.
func (ps *parseState) parseOperand(tokens []string) (Operand, int, error) {
	tok := tokens[0]
	switch {
	case tok == "true":
		return Const(ConstBool(true)), 1, nil
	case tok == "false":
		return Const(ConstBool(false)), 1, nil
	case looksLikeRegister(tok):
		used := 1
		for used < len(tokens) && strings.HasPrefix(tokens[used], "[") {
			used++
		}
		// Join copies only for a view split across fields; the usual
		// "[..][..]" field is passed through as is.
		opnd, err := ps.registerOperand(tok, strings.Join(tokens[1:used], ""))
		if err != nil {
			return Operand{}, 0, err
		}
		return opnd, used, nil
	default:
		c, err := parseConstant(tok)
		if err != nil {
			return Operand{}, 0, err
		}
		return Const(c), 1, nil
	}
}

func looksLikeRegister(tok string) bool {
	if len(tok) < 2 || tok[0] != 'a' {
		return false
	}
	_, err := strconv.Atoi(tok[1:])
	return err == nil
}

func parseConstant(tok string) (Constant, error) {
	// ParseInt can only succeed on a signed digit string; checking the
	// shape first spares a float its failed ParseInt's error allocation.
	if isDecimal(tok) {
		if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return ConstInt(i), nil
		}
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return ConstFloat(f), nil
	}
	return Constant{}, fmt.Errorf("bad constant %q", tok)
}

// isDecimal reports whether tok is an optionally signed run of decimal
// digits.
func isDecimal(tok string) bool {
	if tok != "" && (tok[0] == '+' || tok[0] == '-') {
		tok = tok[1:]
	}
	if tok == "" {
		return false
	}
	for i := 0; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return false
		}
	}
	return true
}

func (ps *parseState) registerOperand(name, viewSpec string) (Operand, error) {
	if viewSpec == "" {
		id, ok := ps.declared[name]
		if !ok {
			return Operand{}, fmt.Errorf("register %s used without view needs a .reg declaration", name)
		}
		info, _ := ps.prog.Reg(id)
		dims := ps.dims.take(2)
		dims[0], dims[1] = info.Len, 1 // the full contiguous 1-D view
		return Reg(id, tensor.View{Shape: tensor.Shape(dims[:1:1]), Strides: dims[1:]}), nil
	}
	view, err := parseView(viewSpec, &ps.dims)
	if err != nil {
		return Operand{}, err
	}
	if id, ok := ps.declared[name]; ok {
		return Reg(id, view), nil
	}
	// Auto-declare: grow the pending register to cover this view.
	pend, ok := ps.pending[name]
	if !ok {
		if ps.pending == nil {
			ps.pending = map[string]*pendingReg{}
		}
		pend = &pendingReg{id: ps.prog.NewReg(tensor.Float64, 0)}
		ps.pending[name] = pend
	}
	if _, hi, nonEmpty := view.MinMaxIndex(); nonEmpty && hi+1 > pend.maxHi {
		pend.maxHi = hi + 1
	}
	return Reg(pend.id, view), nil
}

// intSlab hands out the Shape and Strides of parsed views as capped
// slices of shared blocks: one allocation per block rather than two per
// view. The cap keeps an append to one view's slice from reaching the
// next view's.
type intSlab []int

// intSlabBlock is the slab's block size in ints.
const intSlabBlock = 128

func (s *intSlab) take(n int) []int {
	if n > len(*s) {
		*s = make([]int, max(n, intSlabBlock))
	}
	out := (*s)[:n:n]
	*s = (*s)[n:]
	return out
}

// parseView parses one or more "[start:stop:step]" groups into a View
// whose Shape and Strides come from slab. The first group's start
// carries the linear offset, matching View.String. Syntax errors win
// over extent errors, which win over a misplaced offset.
func parseView(spec string, slab *intSlab) (tensor.View, error) {
	var stack [4][3]int // start, stop, step per group
	groups := stack[:0]
	rest := spec
	for rest != "" {
		if rest[0] != '[' {
			return tensor.View{}, fmt.Errorf("bad view %q", spec)
		}
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return tensor.View{}, fmt.Errorf("unterminated view %q", spec)
		}
		body := rest[1:end]
		if strings.Count(body, ":") != 2 {
			return tensor.View{}, fmt.Errorf("view group %q wants start:stop:step", rest[:end+1])
		}
		var g [3]int
		for i := range g {
			part := body
			if j := strings.IndexByte(body, ':'); j >= 0 {
				part, body = body[:j], body[j+1:]
			}
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return tensor.View{}, fmt.Errorf("bad view number %q", part)
			}
			g[i] = v
		}
		groups = append(groups, g)
		rest = rest[end+1:]
	}
	dims := slab.take(2 * len(groups))
	shape, strides := tensor.Shape(dims[:len(groups):len(groups)]), dims[len(groups):]
	for i, g := range groups {
		start, stop, step := g[0], g[1], g[2]
		span := stop - start
		switch {
		case step == 0: // broadcast dimension
			if span < 0 {
				return tensor.View{}, fmt.Errorf("view group [%d:%d:%d] has negative extent",
					start, stop, step)
			}
			shape[i] = span
			strides[i] = 0
		case span%step != 0 || span/step < 0:
			return tensor.View{}, fmt.Errorf("view group [%d:%d:%d] has non-integral extent",
				start, stop, step)
		default:
			shape[i] = span / step
			strides[i] = step
		}
	}
	offset := 0
	if len(groups) > 0 {
		offset = groups[0][0]
	}
	for i := 1; i < len(groups); i++ {
		if groups[i][0] != 0 {
			return tensor.View{}, fmt.Errorf("view %q: only the leading group may carry an offset", spec)
		}
	}
	return tensor.View{Offset: offset, Shape: shape, Strides: strides}, nil
}
