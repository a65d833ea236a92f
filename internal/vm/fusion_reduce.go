package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Reduction-epilogue fusion: when a reduction over any axis — including
// the argmin/argmax index reductions — consumes the output of the
// elementwise cluster right before it, the producer chain folds into the
// reduction's accumulation loop — sum(x*y) becomes one sweep with no
// materialized temporary. Producer steps run block by block into
// *virtual registers* (one scratch tile per cluster-written register); a
// register that is still referenced after the reduction writes to memory
// instead, so only dead temporaries skip materialization entirely.
//
// The sweep walks lines — runs along the reduced axis — with the row
// machinery of sweep.go, and folds each line (or each chunk of a line)
// strictly in element order with the worker-count-independent strategies
// of reduce.go (split-outputs, chunk-axis, serial) and the same
// chunkParams sizing. Workers:1 ≡ Workers:N stays bit-for-bit for integer
// folds and within the documented reassociation tolerance for chunked
// float folds, and the fused result is bit-identical to interpreted
// execution, which picks the same strategy over the same views.

// epiSrcDesc describes one source operand of a producer step after
// virtual-register resolution: a constant, a virtual slot, or a memory
// read of (reg, view). Memory views are broadcast to the cluster's shape
// with the reduced axis moved innermost (the sweep's iteration order).
type epiSrcDesc struct {
	isConst bool
	cf      float64
	ci      int64
	slot    int // >= 0: virtual register slot
	reg     bytecode.RegID
	view    tensor.View
}

// epiStepDesc is one producer instruction with resolved operands.
type epiStepDesc struct {
	index   int // instruction index, for error reports
	in      *bytecode.Instruction
	dtype   tensor.DType
	outSlot int
	matDst  bool        // write to memory (register live after epilogue)
	outView tensor.View // the result view, reduced axis innermost
	srcs    []epiSrcDesc
}

// epiPlan is the static (buffer-independent) compilation of an epilogue
// cluster.
type epiPlan struct {
	cl       cluster
	redIdx   int
	red      *bytecode.Instruction
	shape    tensor.Shape
	lineDims []int // shape without the reduced axis
	sweep    []int // lineDims then the axis: the sweep's iteration shape
	axLen    int
	lines    int
	outSeek  bool // seek the output cursor per line (false: single line)
	steps    []epiStepDesc
	slotOf   map[bytecode.RegID]int
	slotDT   []tensor.DType          // dtype per virtual slot
	mat      map[bytecode.RegID]bool // registers written to memory
	pSlot    int
	pView    tensor.View // the reduction input, reduced axis innermost
	pFloat   bool
	intRed   bool
}

// referencedAfter reports whether any instruction after index j references
// register r other than releasing it with BH_FREE.
func referencedAfter(p *bytecode.Program, j int, r bytecode.RegID) bool {
	for k := j + 1; k < len(p.Instrs); k++ {
		in := &p.Instrs[k]
		if in.Op == bytecode.OpFree {
			continue
		}
		if in.Out.IsReg() && in.Out.Reg == r {
			return true
		}
		if in.ReadsReg(r) {
			return true
		}
	}
	return false
}

// freedAfter reports whether some instruction after index j frees r. A
// producer register may stay virtual (never materialized) only when the
// batch itself declares the buffer dead: lazy front-ends treat any other
// written register as defined for the next batch.
func freedAfter(p *bytecode.Program, j int, r bytecode.RegID) bool {
	for k := j + 1; k < len(p.Instrs); k++ {
		in := &p.Instrs[k]
		if in.Op == bytecode.OpFree && in.Out.IsReg() && in.Out.Reg == r {
			return true
		}
	}
	return false
}

// analyzeEpilogue resolves the producer steps of a reduce cluster into an
// epiPlan, or reports false when the shapes do not line up (the caller
// then falls back to the two-sweep path).
func analyzeEpilogue(p *bytecode.Program, cl cluster) (*epiPlan, bool) {
	redIdx := cl.end - 1
	red := &p.Instrs[redIdx]
	shape := cl.shape
	axis := red.Axis
	lineShape := make(tensor.Shape, 0, len(shape)-1)
	for d := range shape {
		if d != axis {
			lineShape = append(lineShape, shape[d])
		}
	}
	plan := &epiPlan{
		cl:       cl,
		redIdx:   redIdx,
		red:      red,
		shape:    shape,
		lineDims: []int(lineShape),
		sweep:    append(lineShape.Clone(), shape[axis]),
		axLen:    shape[axis],
		lines:    lineShape.Size(),
		slotOf:   map[bytecode.RegID]int{},
	}
	outView := red.Out.View
	if outView.Size() != plan.lines {
		return nil, false
	}
	switch {
	case outView.Shape.Equal(lineShape):
		plan.outSeek = true
	case plan.lines == 1:
		plan.outSeek = false // single output element at outView.Offset
	default:
		return nil, false
	}

	type writeRec struct {
		step int
		view tensor.View
	}
	writes := map[bytecode.RegID][]writeRec{}
	for k := cl.start; k < redIdx; k++ {
		in := &p.Instrs[k]
		if _, ok := plan.slotOf[in.Out.Reg]; !ok {
			plan.slotOf[in.Out.Reg] = len(plan.slotOf)
			ri, _ := p.Reg(in.Out.Reg)
			plan.slotDT = append(plan.slotDT, ri.DType)
		}
		writes[in.Out.Reg] = append(writes[in.Out.Reg], writeRec{k, in.Out.View})
	}

	// A register skips materialization only when it is provably dead: the
	// batch frees it after the reduction, nothing else references it, and
	// it is not externally bound or observed.
	materialize := map[bytecode.RegID]bool{}
	for r := range plan.slotOf {
		if p.IsInput(r) || p.IsOutput(r) || referencedAfter(p, redIdx, r) || !freedAfter(p, redIdx, r) {
			materialize[r] = true
		}
	}

	for k := cl.start; k < redIdx; k++ {
		in := &p.Instrs[k]
		ri, _ := p.Reg(in.Out.Reg)
		sd := epiStepDesc{index: k, in: in, dtype: ri.DType, outSlot: plan.slotOf[in.Out.Reg],
			outView: axisLast(in.Out.View, axis)}
		for _, opnd := range in.Inputs() {
			if opnd.IsConst() {
				sd.srcs = append(sd.srcs, epiSrcDesc{isConst: true, cf: opnd.Const.Float(), ci: opnd.Const.Int(), slot: -1})
				continue
			}
			view, err := opnd.View.BroadcastTo(shape)
			if err != nil {
				return nil, false
			}
			d := epiSrcDesc{slot: -1, reg: opnd.Reg, view: axisLast(view, axis)}
			// The most recent preceding in-cluster write decides how the
			// read resolves: same window → the virtual value; a different
			// (necessarily disjoint) window → real memory, which forces
			// the register's writes to land there too.
			lastView, hasWrite := tensor.View{}, false
			for _, w := range writes[opnd.Reg] {
				if w.step < k {
					lastView, hasWrite = w.view, true
				}
			}
			if hasWrite {
				if lastView.Equal(opnd.View) {
					d.slot = plan.slotOf[opnd.Reg]
				} else {
					materialize[opnd.Reg] = true
				}
			}
			sd.srcs = append(sd.srcs, d)
		}
		plan.steps = append(plan.steps, sd)
	}
	for i := range plan.steps {
		plan.steps[i].matDst = materialize[plan.steps[i].in.Out.Reg]
	}
	plan.mat = materialize

	pInfo, _ := p.Reg(red.In1.Reg)
	outInfo, _ := p.Reg(red.Out.Reg)
	plan.pSlot = plan.slotOf[red.In1.Reg]
	plan.pView = axisLast(red.In1.View, axis)
	plan.pFloat = pInfo.DType.IsFloat()
	plan.intRed = !outInfo.DType.IsFloat() && !pInfo.DType.IsFloat()
	return plan, true
}

// execClusterReduce executes a cluster whose final instruction is a
// reduction epilogue, falling back to the two-sweep path when the
// epilogue analysis failed at compile time (epi nil) or buffer aliasing
// makes folding unsafe.
func (m *Machine) execClusterReduce(p *bytecode.Program, cl cluster, epi *epiPlan) error {
	ok, err := m.tryReduceEpilogue(p, epi)
	if err != nil || ok {
		return err
	}
	// Fallback: run the producers as a plain cluster, then the reduction
	// through the interpreter.
	prod := cluster{start: cl.start, end: cl.end - 1, fused: cl.end-1-cl.start > 1, shape: cl.shape}
	if prod.fused {
		if err := m.execCluster(p, prod); err != nil {
			return err
		}
	} else if err := m.exec(p, &p.Instrs[prod.start]); err != nil {
		return instrErr(p, prod.start, err)
	}
	if err := m.exec(p, &p.Instrs[cl.end-1]); err != nil {
		return instrErr(p, cl.end-1, err)
	}
	return nil
}

// countEpilogueStats attributes one folded sweep to the counters: every
// producer plus the reduction ran, fused, in a single launch.
func (m *Machine) countEpilogueStats(p *bytecode.Program, plan *epiPlan) {
	nProd := len(plan.steps)
	m.stats.instructions.Add(int64(nProd + 1))
	m.stats.fusedInstructions.Add(int64(nProd + 1))
	m.countFusedDTypes(p, plan.cl.start, plan.cl.end)
	m.stats.sweeps.Add(1)
	m.stats.fusedReductions.Add(1)
	m.stats.elements.Add(int64(plan.shape.Size() * (nProd + 1)))
}

// tryReduceEpilogue binds and runs the folded sweep from the precomputed
// (buffer-independent) epilogue analysis. It returns (false, nil) when
// plan is nil or when the reduction output's buffer aliases a producer
// operand — the caller then takes the two-sweep path, whose serial write
// order tolerates the alias. No scratch is taken before that check, so
// the fallback leaves nothing to return.
func (m *Machine) tryReduceEpilogue(p *bytecode.Program, plan *epiPlan) (bool, error) {
	if plan == nil {
		return false, nil
	}
	red := plan.red
	outBuf, err := m.regs.ensure(p, red.Out.Reg)
	if err != nil {
		return false, instrErr(p, plan.redIdx, err)
	}
	sw, err := m.bindEpilogue(p, plan)
	if err != nil {
		return false, err
	}
	for i := range sw.steps {
		st := &sw.steps[i]
		if st.dst.buf == outBuf || st.src[0].buf == outBuf || st.src[1].buf == outBuf {
			return false, nil
		}
	}

	m.countEpilogueStats(p, plan)
	strategy := m.sweepStrategyFor(red.Out.View, plan.lines, plan.axLen)
	if red.Op.ArgReduce() {
		// Index reductions fold a (value, index) pair with execArgReduce's
		// comparisons; the comparison class follows the producer dtype.
		if plan.pFloat {
			runEpilogue(m, plan, sw, strategy, outBuf, argFold(argBetterFloat(red.Op), tensor.Buffer.Get))
		} else {
			runEpilogue(m, plan, sw, strategy, outBuf, argFold(argBetterInt(red.Op), tensor.Buffer.GetInt))
		}
		return true, nil
	}
	base, _ := red.Op.ReduceBase()
	if plan.intRed {
		k, ok := intBinaryKernel(base)
		if !ok {
			return false, instrErr(p, plan.redIdx, fmt.Errorf("no int kernel for %s", base))
		}
		runEpilogue(m, plan, sw, strategy, outBuf, plainFold(k, tensor.Buffer.GetInt, tensor.Buffer.SetInt, foldBlockInt))
		return true, nil
	}
	k, ok := floatBinaryKernel(base)
	if !ok {
		return false, instrErr(p, plan.redIdx, fmt.Errorf("no kernel for %s", base))
	}
	runEpilogue(m, plan, sw, strategy, outBuf, plainFold(k, tensor.Buffer.Get, tensor.Buffer.Set, foldBlockFloat))
	return true, nil
}
