package bytecode

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"bohrium/internal/tensor"
)

// listing2Source is the paper's Listing 2, verbatim (modulo the spacing the
// assembler tokenizer ignores).
const listing2Source = `
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
`

func TestParseListing2(t *testing.T) {
	p, err := Parse(listing2Source)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Fatalf("parsed %d instrs, want 5", p.Len())
	}
	wantOps := []Opcode{OpIdentity, OpAdd, OpAdd, OpAdd, OpSync}
	for i, op := range wantOps {
		if p.Instrs[i].Op != op {
			t.Errorf("instr %d op = %v, want %v", i, p.Instrs[i].Op, op)
		}
	}
	add := p.Instrs[1]
	if !add.Out.IsReg() || add.Out.Reg != 0 {
		t.Error("result register wrong")
	}
	if got := add.Out.View.String(); got != "[0:10:1]" {
		t.Errorf("result view = %s", got)
	}
	if !add.In2.IsConst() || add.In2.Const.Int() != 1 {
		t.Error("constant operand wrong")
	}
	// Auto-declared register sized to the view.
	ri, ok := p.Reg(0)
	if !ok || ri.Len != 10 || ri.DType != tensor.Float64 {
		t.Errorf("auto-declared reg = %+v", ri)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("parsed Listing 2 invalid: %v", err)
	}
}

func TestParseListing3Optimized(t *testing.T) {
	// Paper Listing 3: the optimized form, using bare registers under a
	// declaration ("I assume the view is the same for all registers").
	src := `
.reg a0 float64 10
BH_IDENTITY a0 0
BH_ADD a0 a0 3
BH_SYNC a0
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("parsed %d instrs, want 3", p.Len())
	}
	if got := p.Instrs[1].In2.Const.Int(); got != 3 {
		t.Errorf("merged constant = %d, want 3", got)
	}
	if got := p.Instrs[1].Out.View.Size(); got != 10 {
		t.Errorf("bare register view size = %d, want 10", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestParseComments(t *testing.T) {
	// Listing 4 carries inline comments ("# x^2").
	src := `
.reg a0 float64 8
.reg a1 float64 8
BH_IDENTITY a0 1   # initialize the tensor , x
BH_MULTIPLY a1 a0 a0 # x^2
BH_SYNC a1
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Errorf("parsed %d instrs, want 3", p.Len())
	}
}

func TestParseConstKinds(t *testing.T) {
	src := `
.reg a0 float64 4
BH_IDENTITY a0 1
BH_ADD a0 a0 2.5
BH_ADD a0 a0 1e2
BH_MULTIPLY a0 a0 true
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].In1.Const.DType != tensor.Int64 {
		t.Error("bare integer should parse as int64")
	}
	if p.Instrs[1].In2.Const.DType != tensor.Float64 || p.Instrs[1].In2.Const.Float() != 2.5 {
		t.Error("2.5 should parse as float64")
	}
	if p.Instrs[2].In2.Const.Float() != 100 {
		t.Error("1e2 should parse as 100")
	}
	if p.Instrs[3].In2.Const.DType != tensor.Bool {
		t.Error("true should parse as bool")
	}
}

func TestParseMultiDimView(t *testing.T) {
	src := `BH_IDENTITY a0 [0:12:4][0:4:1] 0`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v := p.Instrs[0].Out.View
	if !v.Shape.Equal(tensor.MustShape(3, 4)) {
		t.Errorf("shape = %v, want (3, 4)", v.Shape)
	}
	if v.Strides[0] != 4 || v.Strides[1] != 1 {
		t.Errorf("strides = %v", v.Strides)
	}
	// Space-separated view groups parse identically.
	p2, err := Parse(`BH_IDENTITY a0 [0:12:4] [0:4:1] 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Instrs[0].Out.View.Equal(v) {
		t.Error("space-separated view groups differ")
	}
}

func TestParseAxis(t *testing.T) {
	src := `
.reg a0 float64 12
.reg a1 float64 3
BH_IDENTITY a0 [0:12:4][0:4:1] 0
BH_ADD_REDUCE a1 [0:3:1] a0 [0:12:4][0:4:1] axis=1
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[1].Axis != 1 {
		t.Errorf("axis = %d, want 1", p.Instrs[1].Axis)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"unknown opcode", "BH_BOGUS a0 [0:4:1] 0"},
		{"bad view", "BH_IDENTITY a0 [0:4] 0"},
		{"unterminated view", "BH_IDENTITY a0 [0:4:1 0"},
		{"bad constant", "BH_IDENTITY a0 [0:4:1] zebra"},
		{"bare undeclared register", "BH_IDENTITY a0 0"},
		{"double declaration", ".reg a0 float64 4\n.reg a0 float64 4"},
		{"declaration after use", "BH_IDENTITY a0 [0:4:1] 0\n.reg a0 float64 4"},
		{"bad directive", ".bogus a0"},
		{"bad dtype", ".reg a0 quaternion 4"},
		{"bad reg len", ".reg a0 float64 ten"},
		{"bad axis", ".reg a0 float64 4\nBH_IDENTITY a0 0\nBH_ADD_REDUCE a0 a0 axis=x"},
		{"too many operands", "BH_ADD a0 [0:4:1] a0 [0:4:1] 1 2"},
		{"missing result", "BH_SYNC"},
		{"offset in trailing group", "BH_IDENTITY a0 [0:12:4][2:6:1] 0"},
		{"non-integral extent", "BH_IDENTITY a0 [0:5:2] 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tt.src)
			}
			if !errors.Is(err, ErrParse) {
				t.Errorf("error %v is not ErrParse", err)
			}
		})
	}
}

func TestDumpParseRoundTrip(t *testing.T) {
	p := buildListing2()
	text := p.Dump()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if !programsEqual(p, q) {
		t.Errorf("round trip changed program:\n%s\nvs\n%s", p.Dump(), q.Dump())
	}
}

func TestDumpParseRoundTripRandomPrograms(t *testing.T) {
	// Property: Dump then Parse reproduces the program, for arbitrary
	// generated elementwise programs.
	f := func(seed uint64, nInstr uint8) bool {
		p := randomElementwiseProgram(seed, int(nInstr%12)+1)
		q, err := Parse(p.Dump())
		if err != nil {
			return false
		}
		return programsEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomElementwiseProgram builds a small valid program from a seed. Shared
// with the rewrite soundness property tests.
func randomElementwiseProgram(seed uint64, n int) *Program {
	r := tensor.NewSplitMix64(seed)
	p := NewProgram()
	regLen := r.Intn(16) + 1
	nRegs := r.Intn(3) + 1
	regs := make([]RegID, nRegs)
	view := tensor.NewView(tensor.MustShape(regLen))
	for i := range regs {
		regs[i] = p.NewReg(tensor.Float64, regLen)
		p.EmitIdentity(Reg(regs[i], view), Const(ConstInt(int64(r.Intn(5)))))
	}
	binOps := []Opcode{OpAdd, OpSubtract, OpMultiply, OpMaximum, OpMinimum}
	unOps := []Opcode{OpSqrt, OpAbsolute, OpFloor, OpNegative}
	for i := 0; i < n; i++ {
		out := regs[r.Intn(nRegs)]
		switch r.Intn(3) {
		case 0:
			op := binOps[r.Intn(len(binOps))]
			p.EmitBinary(op, Reg(out, view), Reg(regs[r.Intn(nRegs)], view), Const(ConstInt(int64(r.Intn(7)))))
		case 1:
			op := binOps[r.Intn(len(binOps))]
			p.EmitBinary(op, Reg(out, view), Reg(regs[r.Intn(nRegs)], view), Reg(regs[r.Intn(nRegs)], view))
		default:
			op := unOps[r.Intn(len(unOps))]
			p.EmitUnary(op, Reg(out, view), Reg(regs[r.Intn(nRegs)], view))
		}
	}
	for i := range regs {
		p.EmitSync(Reg(regs[i], view))
	}
	return p
}

func programsEqual(a, b *Program) bool {
	if len(a.Regs) != len(b.Regs) || len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Regs {
		if a.Regs[i] != b.Regs[i] {
			return false
		}
	}
	return a.String() == b.String()
}

func TestParseNegativeStrideView(t *testing.T) {
	// A reversed view prints as [9:-1:-1]; the parser must accept it.
	v := tensor.View{Offset: 9, Shape: tensor.MustShape(10), Strides: []int{-1}}
	if v.String() != "[9:-1:-1]" {
		t.Fatalf("reversed view prints %q", v.String())
	}
	p, err := Parse(".reg a0 float64 10\nBH_IDENTITY a0 [9:-1:-1] 0")
	if err != nil {
		t.Fatal(err)
	}
	got := p.Instrs[0].Out.View
	if got.Offset != 9 || got.Shape[0] != 10 || got.Strides[0] != -1 {
		t.Errorf("parsed reversed view = %+v", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("reversed view program invalid: %v", err)
	}
}

func TestParseBroadcastView(t *testing.T) {
	p, err := Parse(".reg a0 float64 4\nBH_IDENTITY a0 [0:4:0] 0")
	if err != nil {
		t.Fatal(err)
	}
	v := p.Instrs[0].Out.View
	if v.Strides[0] != 0 || v.Shape[0] != 4 {
		t.Errorf("broadcast view = %+v", v)
	}
	if !strings.Contains(v.String(), ":0]") {
		t.Errorf("broadcast view prints %q", v.String())
	}
}

func TestDumpRoundTripInputsOutputs(t *testing.T) {
	p := NewProgram()
	a := p.NewReg(tensor.Float64, 4)
	b := p.NewReg(tensor.Float64, 4)
	v := tensor.NewView(tensor.MustShape(4))
	p.MarkInput(a)
	p.MarkOutput(b)
	p.EmitIdentity(Reg(b, v), Reg(a, v))
	text := p.Dump()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if !q.IsInput(a) || !q.IsOutput(b) {
		t.Errorf("inputs/outputs lost in round trip:\n%s", q.Dump())
	}
	if err := q.Validate(); err != nil {
		t.Error(err)
	}
}

// BenchmarkParseNames measures the bhd wire parser on each committed
// listing.
func BenchmarkParseNames(b *testing.B) {
	listings := committedListings(b)
	for _, name := range sortedKeys(listings) {
		src := listings[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, _, err := ParseNames(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
