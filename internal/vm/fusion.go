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
// Fully contiguous clusters run over raw slices (execCluster); strided
// clusters — stencils, sliced views — run with multi-cursor odometer
// iteration (execClusterStrided). A full or last-axis reduction that
// consumes the cluster's output extends the cluster as an epilogue: the
// producer chain folds into the reduction's accumulation loop
// (execClusterReduce) and dead producer temporaries are never
// materialized. System byte-codes, other reductions, extensions, and
// RANDOM end a cluster.

// cluster is a run of instruction indices executable as one sweep.
type cluster struct {
	start, end int // [start, end) in p.Instrs
	fused      bool
	shape      tensor.Shape // shared iteration shape when fused
	linear     bool         // every operand contiguous: raw-slice path
	reduce     bool         // p.Instrs[end-1] is a reduction epilogue
}

// planClusters splits the program into sweeps.
func (m *Machine) planClusters(p *bytecode.Program) []cluster {
	var out []cluster
	i := 0
	for i < len(p.Instrs) {
		shape, linear, fusible := m.fusibleAt(p, i)
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
			shape2, linear2, ok := m.fusibleAt(p, j)
			if !ok || !shape2.Equal(shape) || !acc.compatible(&p.Instrs[j]) {
				break
			}
			linear = linear && linear2
			acc.record(&p.Instrs[j])
			j++
		}
		cl := cluster{start: i, end: j, fused: j-i > 1, shape: shape, linear: linear}
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
// returning its iteration shape and whether all operands are contiguous.
func (m *Machine) fusibleAt(p *bytecode.Program, i int) (tensor.Shape, bool, bool) {
	in := &p.Instrs[i]
	if !in.Op.Elementwise() || len(in.Inputs()) == 0 {
		return nil, false, false
	}
	if !in.Out.IsReg() || !viewInjective(in.Out.View) {
		return nil, false, false
	}
	ri, ok := p.Reg(in.Out.Reg)
	if !ok || !ri.DType.Valid() {
		return nil, false, false
	}
	dt := ri.DType
	shape := in.Out.View.Shape
	linear := in.Out.View.Contiguous()
	for _, opnd := range in.Inputs() {
		if !opnd.IsReg() {
			continue
		}
		si, ok := p.Reg(opnd.Reg)
		if !ok || si.DType != dt {
			// Mixed-dtype steps (casts, promoted operands) keep the
			// accessor path, which defines the conversion semantics.
			return nil, false, false
		}
		if !opnd.View.Shape.BroadcastableTo(shape) {
			return nil, false, false
		}
		if !opnd.View.Shape.Equal(shape) || !opnd.View.Contiguous() {
			linear = false
		}
		// A misaligned self-overlap needs the snapshot the unfused path
		// takes; keep such instructions out of fused sweeps.
		if opnd.Reg == in.Out.Reg && !opnd.View.Equal(in.Out.View) && opnd.View.Overlaps(in.Out.View) {
			return nil, false, false
		}
	}
	return shape, linear, true
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
// cluster. Fused per-element execution preserves step order *within* an
// element, so the only cross-element hazard is a register accessed through
// two views where the same buffer slot maps to different iteration
// indices — i.e. a WRITE view overlapping any other non-equal view.
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

// fusedBlockSize is the tile width (in elements) for fused contiguous
// sweeps: each step's compiled loop runs over one L1-resident block before
// the next step touches it, giving the locality a JIT-compiled kernel
// would get without per-element dispatch. 8192 float64s = 64 KiB.
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
		st := &steps[i-cl.start]
		if err := m.locateStep(p, i, st); err != nil {
			return instrErr(p, i, err)
		}
		if err := st.compile(); err != nil {
			return instrErr(p, i, err)
		}
	}

	m.stats.instructions.Add(int64(len(steps)))
	m.stats.fusedInstructions.Add(int64(len(steps)))
	m.countFusedDTypes(p, cl.start, cl.end)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(n * len(steps)))

	m.par.parallelFor(n, m.cfg.ParallelThreshold, func(lo, hi int) {
		for blockLo := lo; blockLo < hi; blockLo += fusedBlockSize {
			runSteps(steps, nil, blockLo, min(fusedBlockSize, hi-blockLo))
		}
	})
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

// Bound steps: the contiguous sweeps — fused clusters and the linear
// reduction epilogue — bind each instruction once per sweep into a
// dtype-erased kernel plus one locator per operand. A block then only
// slices its windows and calls the kernel, so the hot loop builds no
// closures and allocates nothing.

// stepKernel is a kernel with its storage type erased, so the steps of
// one sweep, which may differ in dtype, share one slice. Each window is
// a (buffer, start) pair of n elements; a nil buffer is an operand the
// kernel does not read (a bound constant, or y of a unary op).
type stepKernel func(d, x, y tensor.Buffer, dOff, xOff, yOff, n int)

// operandLoc locates one step operand for the flat element block
// [gLo, gLo+n): a scratch slot, whose window starts at 0; a memory
// buffer, whose window starts at off+gLo; or nothing (buf nil, slot < 0)
// for a constant bound into the kernel.
type operandLoc struct {
	slot int // >= 0: scratch slot
	buf  tensor.Buffer
	off  int
}

// noLoc locates nothing; memLoc locates an operand in real memory.
var noLoc = operandLoc{slot: -1}

func memLoc(buf tensor.Buffer, off int) operandLoc { return operandLoc{slot: -1, buf: buf, off: off} }

// window resolves the locator for the block starting at gLo.
func (l *operandLoc) window(scratch []tensor.Buffer, gLo int) (tensor.Buffer, int) {
	if l.slot >= 0 {
		return scratch[l.slot], 0
	}
	return l.buf, l.off + gLo
}

// boundStep is one contiguous instruction bound for blockwise execution.
// Register buffers come from the register file, which guarantees each
// matches the program's declaration, so every window lies inside its
// buffer and has the step's storage type.
type boundStep struct {
	index int // instruction index, for error reports
	op    bytecode.Opcode
	dtype tensor.DType // storage dtype of every operand
	args  [2]kArg
	nargs int
	dst   operandLoc
	src   [2]operandLoc
	kern  stepKernel
}

// locateStep binds instruction i with every register operand in memory.
func (m *Machine) locateStep(p *bytecode.Program, i int, st *boundStep) error {
	in := &p.Instrs[i]
	ri, _ := p.Reg(in.Out.Reg)
	*st = boundStep{index: i, op: in.Op, dtype: ri.DType, src: [2]operandLoc{noLoc, noLoc}}
	buf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	st.dst = memLoc(buf, in.Out.View.Offset)
	inputs := in.Inputs()
	st.nargs = len(inputs)
	for j, opnd := range inputs {
		if opnd.IsConst() {
			st.args[j] = kArg{isConst: true, cf: opnd.Const.Float(), ci: opnd.Const.Int()}
			continue
		}
		buf, err := m.regs.ensure(p, opnd.Reg)
		if err != nil {
			return err
		}
		st.src[j] = memLoc(buf, opnd.View.Offset)
	}
	return nil
}

// compile compiles the step's kernel for its storage dtype.
func (st *boundStep) compile() error {
	var ok bool
	args := st.args[:st.nargs]
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

// eraseKernel compiles a typed kernel and wraps it as a stepKernel.
func eraseKernel[T tensor.Elem](dt tensor.DType, op bytecode.Opcode, args []kArg) (stepKernel, bool) {
	k, ok := compileKernel[T](dt, op, args)
	if !ok {
		return nil, false
	}
	return func(d, x, y tensor.Buffer, dOff, xOff, yOff, n int) {
		k(rawWindow[T](d, dOff, n), rawWindow[T](x, xOff, n), rawWindow[T](y, yOff, n))
	}, true
}

// rawWindow is buf's typed window [off, off+n), or nil for a nil buffer.
func rawWindow[T tensor.Elem](buf tensor.Buffer, off, n int) []T {
	if buf == nil {
		return nil
	}
	raw, _ := tensor.RawSlice[T](buf)
	return raw[off : off+n]
}

// runSteps executes every bound step over the flat element block
// [gLo, gLo+n), in program order.
func runSteps(steps []boundStep, scratch []tensor.Buffer, gLo, n int) {
	for i := range steps {
		st := &steps[i]
		d, dOff := st.dst.window(scratch, gLo)
		x, xOff := st.src[0].window(scratch, gLo)
		y, yOff := st.src[1].window(scratch, gLo)
		st.kern(d, x, y, dOff, xOff, yOff, n)
	}
}
