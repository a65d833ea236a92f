package vm

import (
	"fmt"
	"math"
	"regexp"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// The generated-program oracle: programs built from a byte stream cover
// every dtype, 1-D to 3-D windows (offsets, strides, reversed and
// broadcast operands, empty and length-1 extents), fusible elementwise
// chains with constants, and reductions over every axis, with and without
// the trailing BH_FREE that lets a reduction epilogue skip materializing
// its producers. Each program runs through the reference driver and
// through the VM unfused and fused at one and four workers; all five must
// agree bit for bit on every register (any NaN equals any NaN) and on the
// error text.

// oracleThreshold is the one ParallelThreshold every run shares, low
// enough that multi-worker runs split sweeps and pick the parallel
// reduction strategies.
const oracleThreshold = 32

// runReference executes p instruction by instruction with every
// elementwise instruction on the accessor interpreter (slowElementwise):
// the VM's reference semantics, whatever the sweep executor does.
func runReference(m *Machine, p *bytecode.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrExec, err)
	}
	m.regs.grow(len(p.Regs))
	for _, r := range p.Inputs {
		if m.regs.get(r) == nil {
			return fmt.Errorf("%w: input register %s not bound", ErrExec, r)
		}
	}
	for idx := range p.Instrs {
		in := &p.Instrs[idx]
		var err error
		if in.Op.Elementwise() {
			err = m.execReference(p, in)
		} else {
			err = m.exec(p, in)
		}
		if err != nil {
			return fmt.Errorf("%w: instr %d (%s): %w", ErrExec, idx, in.String(), err)
		}
	}
	return nil
}

// runRef assembles src and executes it on a fresh machine through
// runReference.
func runRef(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	t.Cleanup(m.Close)
	if err := runReference(m, p); err != nil {
		t.Fatal(err)
	}
	return m
}

// execReference is execElementwise with the accessor interpreter as the
// only executor.
func (m *Machine) execReference(p *bytecode.Program, in *bytecode.Instruction) error {
	outBuf, srcs, err := m.elementwiseOperands(p, in)
	if err != nil {
		return err
	}
	return m.slowElementwise(in.Op, outBuf, in.Out.View, srcs)
}

// byteSource turns fuzz bytes into generator choices; an exhausted
// stream keeps answering 0, so every input yields a program.
type byteSource struct {
	b []byte
	i int
}

// n returns a choice in [0, k).
func (s *byteSource) n(k int) int {
	if k <= 1 || s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % k
}

// pick returns one element of xs.
func pick[T any](s *byteSource, xs ...T) T { return xs[s.n(len(xs))] }

var (
	oracleFloatBinary = []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply,
		bytecode.OpDivide, bytecode.OpMaximum, bytecode.OpMinimum, bytecode.OpPower, bytecode.OpMod,
		bytecode.OpArctan2}
	oracleFloatUnary = []bytecode.Opcode{bytecode.OpIdentity, bytecode.OpNegative, bytecode.OpAbsolute,
		bytecode.OpSqrt, bytecode.OpExp, bytecode.OpSin, bytecode.OpFloor, bytecode.OpRint,
		bytecode.OpSign, bytecode.OpLog, bytecode.OpTanh}
	oracleIntBinary = []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply,
		bytecode.OpDivide, bytecode.OpMod, bytecode.OpMaximum, bytecode.OpMinimum, bytecode.OpPower,
		bytecode.OpBitwiseAnd, bytecode.OpBitwiseOr, bytecode.OpBitwiseXor, bytecode.OpLeftShift,
		bytecode.OpRightShift, bytecode.OpArctan2}
	oracleIntUnary = []bytecode.Opcode{bytecode.OpIdentity, bytecode.OpNegative, bytecode.OpAbsolute,
		bytecode.OpInvert, bytecode.OpSqrt, bytecode.OpSign}
	oracleBoolBinary = []bytecode.Opcode{bytecode.OpLogicalAnd, bytecode.OpLogicalOr, bytecode.OpLogicalXor,
		bytecode.OpEqual, bytecode.OpNotEqual, bytecode.OpLess, bytecode.OpMaximum, bytecode.OpAdd}
	oracleBoolUnary = []bytecode.Opcode{bytecode.OpIdentity, bytecode.OpLogicalNot}
)

// oracleDTypes lists every supported dtype.
var oracleDTypes = []tensor.DType{tensor.Bool, tensor.Uint8, tensor.Int32, tensor.Int64, tensor.Float32, tensor.Float64}

// window is a generated view plus the register length that holds it.
type window struct {
	view tensor.View
	n    int
}

// genWindow builds a view of the given shape into a fresh base array:
// each dimension gets a step (unit, doubled, reversed, or — when
// broadcast is allowed — zero) and padding, and the base array's layout
// may be permuted, so the view is offset, strided, reversed or
// transposed. With broadcast, a dimension may also shrink to extent 1.
func genWindow(s *byteSource, shape tensor.Shape, broadcast bool) window {
	nd := len(shape)
	vshape := shape.Clone()
	steps := make([]int, nd)
	base := make([]int, nd)
	for d := range shape {
		steps[d] = pick(s, 1, 1, 1, 2, -1, -2)
		if broadcast {
			switch s.n(8) {
			case 0:
				steps[d] = 0 // explicit stride-0 broadcast
			case 1:
				vshape[d] = 1 // extent-1 broadcast
			}
		}
		span := 1
		if vshape[d] > 0 {
			span = abs(steps[d])*(vshape[d]-1) + 1
		}
		base[d] = span + s.n(3)
	}
	// Base strides: contiguous over a permutation of the dimensions.
	perm := make([]int, nd)
	for d := range perm {
		perm[d] = d
	}
	if nd > 1 && s.n(4) == 0 {
		i, j := s.n(nd), s.n(nd)
		perm[i], perm[j] = perm[j], perm[i]
	}
	baseStrides := make([]int, nd)
	n := 1
	for k := nd - 1; k >= 0; k-- {
		d := perm[k]
		baseStrides[d] = n
		n *= base[d]
	}
	v := tensor.View{Shape: vshape, Strides: make([]int, nd)}
	for d := range shape {
		span := 0
		if vshape[d] > 0 {
			span = abs(steps[d]) * (vshape[d] - 1)
		}
		start := s.n(base[d] - span)
		if steps[d] < 0 {
			start += span
		}
		v.Offset += start * baseStrides[d]
		v.Strides[d] = steps[d] * baseStrides[d]
	}
	if broadcast && nd > 1 && s.n(6) == 0 {
		// Drop the leading dimension: numpy-style rank broadcast.
		v = tensor.View{Offset: v.Offset, Shape: v.Shape[1:], Strides: v.Strides[1:]}
	}
	return window{view: v, n: n}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// altView is another injective or non-injective window over the same
// elements as v: one dimension reversed, or (rarely) collapsed to
// stride 0. It overlaps v without equalling it, which ends clusters and
// exercises the self-overlap snapshot.
func altView(s *byteSource, v tensor.View) tensor.View {
	w := v.Clone()
	if len(w.Shape) == 0 {
		return w
	}
	d := s.n(len(w.Shape))
	if w.Shape[d] > 1 {
		if s.n(6) == 0 {
			w.Strides[d] = 0
			return w
		}
		w.Offset += (w.Shape[d] - 1) * w.Strides[d]
		w.Strides[d] = -w.Strides[d]
	}
	return w
}

// oracleConst draws a constant operand for dtype dt.
func oracleConst(s *byteSource, dt tensor.DType) bytecode.Operand {
	v := pick(s, 0.0, 1.0, 2.0, -1.0, 0.5, 3.0, 7.0, -2.5)
	if s.n(8) == 0 {
		return bytecode.Const(bytecode.ConstFloat(v))
	}
	return bytecode.Const(bytecode.ConstOf(dt, v))
}

// genProgram builds one program from s. The prelude defines the input
// and temporary registers; the body is the elementwise chain over one
// iteration shape, an optional reduction of one of its temporaries, and
// the trailing frees and syncs.
func genProgram(s *byteSource) *bytecode.Program {
	p := bytecode.NewProgram()
	var prelude []bytecode.Instruction
	emit := func(dst *[]bytecode.Instruction, f func()) {
		mark := len(p.Instrs)
		f()
		*dst = append(*dst, p.Instrs[mark:]...)
		p.Instrs = p.Instrs[:mark]
	}

	dt := pick(s, oracleDTypes...)
	nd := 1 + s.n(3)
	shape := make(tensor.Shape, nd)
	for d := range shape {
		shape[d] = pick(s, 1, 2, 3, 4, 5, 7, 9)
	}
	switch s.n(20) {
	case 0:
		shape[s.n(nd)] = 0
	case 1:
		// One long axis: the chunked reduction strategy.
		for d := range shape {
			shape[d] = 1
		}
		shape[s.n(nd)] = 2100 + s.n(200)*10
	}

	// newInput declares a register holding window w, filled with values
	// of dtype dtIn.
	newInput := func(dtIn tensor.DType, n int) bytecode.RegID {
		r := p.NewReg(dtIn, n)
		whole := bytecode.Reg(r, tensor.NewView(tensor.MustShape(n)))
		emit(&prelude, func() {
			if dtIn == tensor.Bool {
				f := p.NewReg(tensor.Float64, n)
				fw := bytecode.Reg(f, tensor.NewView(tensor.MustShape(n)))
				p.Emit(bytecode.Instruction{Op: bytecode.OpRandom, Out: fw,
					In1: bytecode.Const(bytecode.ConstInt(int64(s.n(100)))), In2: bytecode.Const(bytecode.ConstInt(0))})
				p.EmitBinary(bytecode.OpGreater, whole, fw, bytecode.Const(bytecode.ConstFloat(0.5)))
				return
			}
			p.Emit(bytecode.Instruction{Op: bytecode.OpRandom, Out: whole,
				In1: bytecode.Const(bytecode.ConstInt(int64(s.n(100)))), In2: bytecode.Const(bytecode.ConstInt(0))})
			switch {
			case dtIn.IsFloat() && s.n(2) == 0:
				p.EmitBinary(bytecode.OpSubtract, whole, whole, bytecode.Const(bytecode.ConstFloat(0.5)))
			case !dtIn.IsFloat() && s.n(2) == 0:
				p.EmitBinary(bytecode.OpMod, whole, whole, bytecode.Const(bytecode.ConstOf(dtIn, 9)))
			}
		})
		return r
	}

	// Temporaries: each has a canonical window the chain writes through.
	type temp struct {
		reg  bytecode.RegID
		view tensor.View
	}
	temps := make([]temp, 1+s.n(3))
	for i := range temps {
		w := genWindow(s, shape, false)
		temps[i] = temp{reg: p.NewReg(dt, w.n), view: w.view}
		init := bytecode.Reg(temps[i].reg, tensor.NewView(tensor.MustShape(w.n)))
		emit(&prelude, func() { p.EmitIdentity(init, oracleConst(s, dt)) })
	}

	operand := func() bytecode.Operand {
		switch s.n(8) {
		case 0, 1:
			return oracleConst(s, dt)
		case 2, 3, 4:
			t := temps[s.n(len(temps))]
			if s.n(8) == 0 {
				return bytecode.Reg(t.reg, altView(s, t.view))
			}
			return bytecode.Reg(t.reg, t.view)
		default:
			dtIn := dt
			if s.n(10) == 0 {
				dtIn = pick(s, oracleDTypes...) // a mixed-dtype step
			}
			w := genWindow(s, shape, true)
			return bytecode.Reg(newInput(dtIn, w.n), w.view)
		}
	}

	var body []bytecode.Instruction
	unary, binary := oracleFloatUnary, oracleFloatBinary
	switch {
	case dt == tensor.Bool:
		unary, binary = oracleBoolUnary, oracleBoolBinary
	case !dt.IsFloat():
		unary, binary = oracleIntUnary, oracleIntBinary
	}
	for k, steps := 0, 1+s.n(6); k < steps; k++ {
		t := temps[s.n(len(temps))]
		out := bytecode.Reg(t.reg, t.view)
		if s.n(10) == 0 {
			out = bytecode.Reg(t.reg, altView(s, t.view))
		}
		emit(&body, func() {
			if s.n(3) == 0 {
				p.EmitUnary(pick(s, unary...), out, operand())
				return
			}
			a := operand()
			p.EmitBinary(pick(s, binary...), out, a, operand())
		})
	}

	if s.n(3) != 0 {
		src := temps[s.n(len(temps))]
		axis := s.n(nd)
		ops := []bytecode.Opcode{bytecode.OpAddReduce, bytecode.OpMaximumReduce, bytecode.OpMinimumReduce,
			bytecode.OpMultiplyReduce, bytecode.OpArgminReduce, bytecode.OpArgmaxReduce}
		if dt == tensor.Bool {
			ops = []bytecode.Opcode{bytecode.OpLogicalOrReduce, bytecode.OpLogicalAndReduce,
				bytecode.OpArgmaxReduce, bytecode.OpAddReduce}
		}
		op := pick(s, ops...)
		outDT := dt
		switch {
		case op.ArgReduce():
			outDT = tensor.Int64
		case s.n(8) == 0:
			outDT = pick(s, tensor.Float64, tensor.Int64)
		}
		outShape := tensor.Shape{}
		for d := range shape {
			if d != axis {
				outShape = append(outShape, shape[d])
			}
		}
		if len(outShape) == 0 {
			outShape = tensor.Shape{1}
		}
		w := genWindow(s, outShape, false)
		dst := bytecode.Reg(p.NewReg(outDT, w.n), w.view)
		emit(&body, func() {
			p.EmitReduce(op, dst, bytecode.Reg(src.reg, src.view), axis)
			if s.n(4) == 0 {
				// A later reader keeps the producer live.
				t := temps[s.n(len(temps))]
				p.EmitBinary(pick(s, binary...), bytecode.Reg(t.reg, t.view), bytecode.Reg(src.reg, src.view), oracleConst(s, dt))
			}
			for _, t := range temps {
				if s.n(2) == 0 {
					p.EmitFree(bytecode.Reg(t.reg, t.view))
				}
			}
			p.EmitSync(dst)
		})
	}
	p.Instrs = append(prelude, body...)
	return p
}

// oracleRun is one execution's observable outcome: every register's
// contents (nil for a register without a buffer) or the error text.
type oracleRun struct {
	regs [][]uint64
	err  string
}

// clusterPrefix is the fused executor's error annotation, which the
// instruction-at-a-time paths lack.
var clusterPrefix = regexp.MustCompile(`cluster \[\d+,\d+\): `)

func runOracleProgram(p *bytecode.Program, cfg Config, reference bool) oracleRun {
	m := New(cfg)
	defer m.Close()
	var err error
	if reference {
		err = runReference(m, p)
	} else {
		err = m.Run(p)
	}
	if err != nil {
		return oracleRun{err: clusterPrefix.ReplaceAllString(err.Error(), "")}
	}
	out := oracleRun{regs: make([][]uint64, len(p.Regs))}
	for r := range p.Regs {
		buf := m.regs.get(bytecode.RegID(r))
		if buf == nil {
			continue
		}
		vals := make([]uint64, buf.Len())
		for i := range vals {
			if buf.DType().IsFloat() {
				f := buf.Get(i)
				if math.IsNaN(f) {
					f = math.NaN()
				}
				vals[i] = math.Float64bits(f)
			} else {
				vals[i] = uint64(buf.GetInt(i))
			}
		}
		out.regs[r] = vals
	}
	return out
}

// diffOracle reports the first difference between two outcomes, or "".
func diffOracle(a, b oracleRun) string {
	if a.err != b.err {
		return fmt.Sprintf("error %q vs %q", a.err, b.err)
	}
	for r := range a.regs {
		x, y := a.regs[r], b.regs[r]
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return fmt.Sprintf("register a%d: %d vs %d elements", r, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("a%d[%d]: %#x vs %#x", r, i, x[i], y[i])
			}
		}
	}
	return ""
}

// checkOracle runs p through the whole matrix and fails on any
// disagreement with the reference.
func checkOracle(t *testing.T, p *bytecode.Program) {
	t.Helper()
	ref := runOracleProgram(p, Config{Workers: 1, ParallelThreshold: oracleThreshold}, true)
	for _, cfg := range []Config{
		{Fusion: false, Workers: 1, ParallelThreshold: oracleThreshold},
		{Fusion: false, Workers: 4, ParallelThreshold: oracleThreshold},
		{Fusion: true, Workers: 1, ParallelThreshold: oracleThreshold},
		{Fusion: true, Workers: 4, ParallelThreshold: oracleThreshold},
	} {
		if d := diffOracle(ref, runOracleProgram(p, cfg, false)); d != "" {
			t.Fatalf("Fusion:%v Workers:%d differs from the reference: %s\n%s",
				cfg.Fusion, cfg.Workers, d, p.Dump())
		}
	}
}

// oracleSeedBytes is the generator input for seed i.
func oracleSeedBytes(i uint64) []byte {
	r := tensor.NewSplitMix64(i)
	b := make([]byte, 192)
	for j := range b {
		b[j] = byte(r.Uint64())
	}
	return b
}

// TestGeneratedProgramsDifferential runs a fixed set of generated
// programs through the oracle matrix.
func TestGeneratedProgramsDifferential(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		p := genProgram(&byteSource{b: oracleSeedBytes(uint64(i))})
		checkOracle(t, p)
	}
}

// FuzzVMDifferential is the oracle as a native fuzz target: any byte
// string is a program, and every execution path must agree on it.
func FuzzVMDifferential(f *testing.F) {
	for i := uint64(0); i < 16; i++ {
		f.Add(oracleSeedBytes(i))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkOracle(t, genProgram(&byteSource{b: b}))
	})
}
