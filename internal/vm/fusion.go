package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Fusion clusters consecutive elementwise byte-codes into one sweep over
// their shared iteration space — this reproduction's substitute for the
// OpenCL kernel JIT: where Bohrium emits one kernel source for a fusible
// batch, we emit one fused Go loop.
//
// Two byte-codes may share a sweep when:
//   - both are elementwise and each instruction's register operands all
//     share one dtype (any supported dtype; steps of *different* dtypes
//     may still share a cluster — each step compiles its own typed loop),
//   - their result views share one iteration shape (inputs may broadcast
//     into it), the result view addresses each element at most once, and
//   - every register they share is addressed through the *same* view in
//     both (otherwise element i of one is element j≠i of the other, and
//     per-element interleaving would reorder a cross-element dependence).
//
// Every cluster runs as one row-wise sweep (sweep.go) over its shared
// iteration shape: contiguous clusters collapse to a single row, stencils
// and sliced views keep one row per constant-stride run. A reduction over
// any axis that consumes the cluster's output extends the cluster as an
// epilogue: the producer chain folds into the reduction's accumulation
// loop (execClusterReduce) and dead producer temporaries are never
// materialized. System byte-codes, other reductions, extensions, and
// RANDOM end a cluster.

// cluster is a run of instruction indices executable as one sweep.
type cluster struct {
	start, end int // [start, end) in p.Instrs
	fused      bool
	shape      tensor.Shape // shared iteration shape when fused
	reduce     bool         // p.Instrs[end-1] is a reduction epilogue
}

// planClusters splits the program into sweeps.
func (m *Machine) planClusters(p *bytecode.Program) []cluster {
	var out []cluster
	i := 0
	for i < len(p.Instrs) {
		shape, fusible := m.fusibleAt(p, i)
		if !fusible {
			out = append(out, cluster{start: i, end: i + 1})
			i++
			continue
		}
		// Extend the cluster while the next instruction is fusible over
		// the same iteration shape and no write view conflicts with any
		// other access of the same register.
		acc := newAccessTracker()
		acc.record(&p.Instrs[i])
		j := i + 1
		for j < len(p.Instrs) {
			shape2, ok := m.fusibleAt(p, j)
			if !ok || !shape2.Equal(shape) || !acc.compatible(&p.Instrs[j]) {
				break
			}
			acc.record(&p.Instrs[j])
			j++
		}
		cl := cluster{start: i, end: j, fused: j-i > 1, shape: shape}
		if j < len(p.Instrs) && reduceEpilogueAt(p, cl, j) {
			cl.end = j + 1
			cl.fused = true
			cl.reduce = true
			j++
		}
		out = append(out, cl)
		i = j
	}
	return out
}

// fusibleAt reports whether instruction i qualifies for fused execution,
// returning its iteration shape.
func (m *Machine) fusibleAt(p *bytecode.Program, i int) (tensor.Shape, bool) {
	in := &p.Instrs[i]
	if !in.Op.Elementwise() || len(in.Inputs()) == 0 {
		return nil, false
	}
	if !in.Out.IsReg() || !viewInjective(in.Out.View) {
		return nil, false
	}
	ri, ok := p.Reg(in.Out.Reg)
	if !ok || !ri.DType.Valid() {
		return nil, false
	}
	dt := ri.DType
	shape := in.Out.View.Shape
	for _, opnd := range in.Inputs() {
		if !opnd.IsReg() {
			continue
		}
		si, ok := p.Reg(opnd.Reg)
		if !ok || si.DType != dt {
			// Mixed-dtype steps (casts, promoted operands) keep the
			// accessor path, which defines the conversion semantics.
			return nil, false
		}
		if !opnd.View.Shape.BroadcastableTo(shape) {
			return nil, false
		}
		// A misaligned self-overlap needs the snapshot the unfused path
		// takes; keep such instructions out of fused sweeps.
		if opnd.Reg == in.Out.Reg && !opnd.View.Equal(in.Out.View) && opnd.View.Overlaps(in.Out.View) {
			return nil, false
		}
	}
	return shape, true
}

// reduceEpilogueAt reports whether the reduction at index j can fold the
// preceding elementwise cluster cl into its accumulation loop. The legal
// shape: a reduction over any axis — including the argmin/argmax index
// reductions, whose fold carries a (value, index) pair — whose input is
// a register the cluster wrote, through exactly the window of the
// cluster's final write, into an output register the cluster does not
// write. The folded sweep walks the reduced line space in the same
// row-major order the interpreted two-sweep path does, so no axis is
// special. Buffer-level aliasing between the reduction output and the
// producers' operands is checked at execution time (execClusterReduce
// falls back).
func reduceEpilogueAt(p *bytecode.Program, cl cluster, j int) bool {
	in := &p.Instrs[j]
	if in.Op.Info().Kind != bytecode.KindReduction {
		return false
	}
	if _, ok := in.Op.ReduceBase(); !ok && !in.Op.ArgReduce() {
		return false
	}
	if !in.In1.IsReg() || !in.Out.IsReg() {
		return false
	}
	nd := in.In1.View.NDim()
	if nd == 0 || in.Axis < 0 || in.Axis >= nd {
		return false
	}
	if in.In1.View.Shape[in.Axis] == 0 {
		return false // empty axis takes the identity-fill path
	}
	if !in.In1.View.Shape.Equal(cl.shape) {
		return false
	}
	lastWrite := -1
	for k := cl.start; k < cl.end; k++ {
		if p.Instrs[k].Out.Reg == in.In1.Reg {
			lastWrite = k
		}
	}
	if lastWrite < 0 || !p.Instrs[lastWrite].Out.View.Equal(in.In1.View) {
		return false
	}
	// The output register must be untouched by the cluster: the epilogue
	// writes it line-by-line while producer steps still evaluate.
	for k := cl.start; k < cl.end; k++ {
		if p.Instrs[k].Out.Reg == in.Out.Reg {
			return false
		}
	}
	return in.Out.Reg != in.In1.Reg
}

// accessTracker records per-register read and write views inside a
// cluster. A fused sweep preserves step order *within* a block, so the
// only cross-element hazard is a register accessed through two views
// where the same buffer slot maps to different iteration indices — i.e. a
// WRITE view overlapping any other non-equal view.
// Overlapping reads (the stencil's north/south/east/west windows) are
// always safe.
type accessTracker struct {
	reads  map[bytecode.RegID][]tensor.View
	writes map[bytecode.RegID][]tensor.View
}

func newAccessTracker() *accessTracker {
	return &accessTracker{
		reads:  map[bytecode.RegID][]tensor.View{},
		writes: map[bytecode.RegID][]tensor.View{},
	}
}

func (a *accessTracker) record(in *bytecode.Instruction) {
	a.writes[in.Out.Reg] = append(a.writes[in.Out.Reg], in.Out.View)
	for _, opnd := range in.Inputs() {
		if opnd.IsReg() {
			a.reads[opnd.Reg] = append(a.reads[opnd.Reg], opnd.View)
		}
	}
}

func (a *accessTracker) compatible(in *bytecode.Instruction) bool {
	// The candidate's write must not alias any earlier access through a
	// different window.
	w := in.Out.View
	for _, v := range a.reads[in.Out.Reg] {
		if !w.Equal(v) && w.Overlaps(v) {
			return false
		}
	}
	for _, v := range a.writes[in.Out.Reg] {
		if !w.Equal(v) && w.Overlaps(v) {
			return false
		}
	}
	// The candidate's reads must not alias any earlier write through a
	// different window.
	for _, opnd := range in.Inputs() {
		if !opnd.IsReg() {
			continue
		}
		for _, v := range a.writes[opnd.Reg] {
			if !opnd.View.Equal(v) && opnd.View.Overlaps(v) {
				return false
			}
		}
	}
	return true
}

// fusedBlockSize is the tile width (in elements) of every sweep: each
// step's compiled kernel runs over one L1-resident block before the next
// step touches it, giving the locality a JIT-compiled kernel would get
// without per-element dispatch. 8192 float64s = 64 KiB.
const fusedBlockSize = 8192

// instrErr annotates err with the index and disassembly of the failing
// instruction. The cause is wrapped (%w, identical text) so typed
// sentinels like ErrMemoryPressure survive to errors.Is at the host.
func instrErr(p *bytecode.Program, i int, err error) error {
	return fmt.Errorf("instr %d (%s): %w", i, p.Instrs[i].String(), err)
}

func (m *Machine) execCluster(p *bytecode.Program, cl cluster) error {
	n := cl.shape.Size()
	steps := make([]boundStep, cl.end-cl.start)
	for i := cl.start; i < cl.end; i++ {
		if err := m.bindStep(p, i, cl.shape, &steps[i-cl.start]); err != nil {
			return instrErr(p, i, err)
		}
	}

	m.stats.instructions.Add(int64(len(steps)))
	m.stats.fusedInstructions.Add(int64(len(steps)))
	m.countFusedDTypes(p, cl.start, cl.end)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(n * len(steps)))
	m.sweep(cl.shape, steps)
	return nil
}

// countFusedDTypes attributes the instructions in [start, end) to the
// per-dtype fused counters by their output register's dtype.
func (m *Machine) countFusedDTypes(p *bytecode.Program, start, end int) {
	for i := start; i < end; i++ {
		if ri, ok := p.Reg(p.Instrs[i].Out.Reg); ok {
			m.stats.addDType(ri.DType, 1)
		}
	}
}

// Bound steps: every sweep binds each instruction once into a
// dtype-erased kernel plus one locator per operand. A block then only
// resolves its windows and calls the kernel, so the hot loop builds no
// closures and allocates nothing.

// span is one operand's window for a block: n elements stride apart in
// buf from off. A run whose stride is not 1 is staged through tile. A nil
// buf is an operand the kernel does not read (a bound constant, or y of a
// unary op).
type span struct {
	buf         tensor.Buffer
	off, stride int
	tile        tensor.Buffer
}

// stepKernel is a kernel with its storage type erased, so the steps of
// one sweep, which may differ in dtype, share one slice.
type stepKernel func(d, x, y span, n int)

// operandLoc locates one step operand: a scratch slot, whose window
// starts at 0 in every block; a memory buffer addressed through view over
// the sweep's iteration shape, advancing by step along a row; or nothing
// (buf nil, slot < 0) for a constant bound into the kernel. view points
// into the program or plan, which outlive the sweep and never change.
type operandLoc struct {
	buf  tensor.Buffer
	view *tensor.View
	slot int32 // >= 0: scratch slot
	tile int32 // >= 0: scratch slot staging a run whose step is not 1
	step int   // stride along a row, set by layoutSteps
}

// noLoc locates nothing; slotLoc locates a scratch slot; memLoc locates
// an operand in real memory.
var noLoc = operandLoc{slot: -1, tile: -1}

func slotLoc(slot int) operandLoc { return operandLoc{slot: int32(slot), tile: -1} }

func memLoc(buf tensor.Buffer, v *tensor.View) operandLoc {
	return operandLoc{slot: -1, tile: -1, buf: buf, view: v}
}

// inMemory reports whether the locator addresses a memory buffer.
func (l *operandLoc) inMemory() bool { return l.slot < 0 && l.buf != nil }

// span resolves the locator for the block starting at element c of row r.
func (l *operandLoc) span(scratch []tensor.Buffer, lay *rowLayout, r, c int) span {
	if !l.inMemory() {
		if l.slot >= 0 {
			return span{buf: scratch[l.slot], stride: 1}
		}
		return span{}
	}
	s := span{buf: l.buf, off: lay.rowStart(l.view, r) + c*l.step, stride: l.step}
	if l.tile >= 0 {
		s.tile = scratch[l.tile]
	}
	return s
}

// boundStep is one instruction bound for blockwise execution: its
// compiled kernel and a locator per operand. Register buffers come from
// the register file, which guarantees each matches the program's
// declaration, so every window lies inside its buffer and has the step's
// storage type.
type boundStep struct {
	op    bytecode.Opcode
	dtype tensor.DType // storage dtype of every operand
	dst   operandLoc
	src   [2]operandLoc
	kern  stepKernel
}

// bindStep binds instruction i with every register operand in memory,
// its view broadcast to the cluster's iteration shape, and compiles it.
func (m *Machine) bindStep(p *bytecode.Program, i int, shape tensor.Shape, st *boundStep) error {
	in := &p.Instrs[i]
	ri, _ := p.Reg(in.Out.Reg)
	*st = boundStep{op: in.Op, dtype: ri.DType, src: [2]operandLoc{noLoc, noLoc}}
	buf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	st.dst = memLoc(buf, &in.Out.View)
	var args [2]kArg
	nargs := len(in.Inputs())
	operands := [2]*bytecode.Operand{&in.In1, &in.In2}
	for j, opnd := range operands[:nargs] {
		if opnd.IsConst() {
			args[j] = kArg{isConst: true, cf: opnd.Const.Float(), ci: opnd.Const.Int()}
			continue
		}
		buf, err := m.regs.ensure(p, opnd.Reg)
		if err != nil {
			return err
		}
		view := &opnd.View
		if !view.Shape.Equal(shape) {
			bv, err := view.BroadcastTo(shape)
			if err != nil {
				return err
			}
			view = &bv
		}
		st.src[j] = memLoc(buf, view)
	}
	return st.compile(args[:nargs])
}

// compile compiles the step's kernel over operands args for its storage
// dtype — the one dtype dispatch of every sweep.
func (st *boundStep) compile(args []kArg) error {
	var ok bool
	switch st.dtype {
	case tensor.Float64:
		st.kern, ok = eraseKernel[float64](st.dtype, st.op, args)
	case tensor.Float32:
		st.kern, ok = eraseKernel[float32](st.dtype, st.op, args)
	case tensor.Int64:
		st.kern, ok = eraseKernel[int64](st.dtype, st.op, args)
	case tensor.Int32:
		st.kern, ok = eraseKernel[int32](st.dtype, st.op, args)
	case tensor.Bool, tensor.Uint8:
		st.kern, ok = eraseKernel[uint8](st.dtype, st.op, args)
	default:
		return fmt.Errorf("unsupported dtype %v", st.dtype)
	}
	if !ok {
		return fmt.Errorf("no compiled loop for %s", st.op)
	}
	return nil
}

// eraseKernel compiles a typed kernel and wraps it as a stepKernel that
// gathers strided input runs into their tiles, and scatters a strided
// result run from its tile after the kernel ran.
func eraseKernel[T tensor.Elem](dt tensor.DType, op bytecode.Opcode, args []kArg) (stepKernel, bool) {
	k, ok := compileKernel[T](dt, op, args)
	if !ok {
		return nil, false
	}
	return func(d, x, y span, n int) {
		if d.stride == 1 {
			k(rawWindow[T](d.buf, d.off, n), gather[T](x, n), gather[T](y, n))
			return
		}
		t := rawWindow[T](d.tile, 0, n)
		k(t, gather[T](x, n), gather[T](y, n))
		raw, _ := tensor.RawSlice[T](d.buf)
		for i, j := 0, d.off; i < n; i, j = i+1, j+d.stride {
			raw[j] = t[i]
		}
	}, true
}

// gather returns the span's n elements as one slice: the buffer window
// itself at unit stride, otherwise a copy staged in the span's tile. Nil
// for a nil buffer.
func gather[T tensor.Elem](s span, n int) []T {
	if s.buf == nil || s.stride == 1 {
		return rawWindow[T](s.buf, s.off, n)
	}
	raw, _ := tensor.RawSlice[T](s.buf)
	t := rawWindow[T](s.tile, 0, n)
	for i, j := 0, s.off; i < n; i, j = i+1, j+s.stride {
		t[i] = raw[j]
	}
	return t
}

// rawWindow is buf's typed window [off, off+n), or nil for a nil buffer.
func rawWindow[T tensor.Elem](buf tensor.Buffer, off, n int) []T {
	if buf == nil {
		return nil
	}
	raw, _ := tensor.RawSlice[T](buf)
	return raw[off : off+n]
}

// runSteps executes every bound step over the block of n elements
// starting at element c of row r, in program order.
func runSteps(steps []boundStep, scratch []tensor.Buffer, lay *rowLayout, r, c, n int) {
	for i := range steps {
		st := &steps[i]
		st.kern(st.dst.span(scratch, lay, r, c), st.src[0].span(scratch, lay, r, c),
			st.src[1].span(scratch, lay, r, c), n)
	}
}
