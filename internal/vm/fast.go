package vm

import (
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// fastElementwise executes the instruction with a compiled kernel over
// raw slices when the output and every register operand share one dtype
// and all views are contiguous with equal size; returns false to fall back
// to the strided accessor path. Large sweeps are split across the worker
// pool. Every supported dtype takes this path; mixed-dtype instructions
// (casts, promotions) keep the accessor path, whose class rules this one
// reproduces bit-for-bit.
func (m *Machine) fastElementwise(op bytecode.Opcode, out tensor.Buffer, outView tensor.View, srcs []source) bool {
	if !outView.Contiguous() {
		return false
	}
	n := outView.Size()
	st := boundStep{op: op, dtype: out.DType(), nargs: len(srcs), dst: memLoc(out, outView.Offset),
		src: [2]operandLoc{noLoc, noLoc}}
	// Class semantics are defined per instruction dtype; an input stored as
	// another dtype (even one with the same storage width) falls back.
	for i, s := range srcs {
		if s.isConst {
			st.args[i] = kArg{isConst: true, cf: s.cf, ci: s.ci}
			continue
		}
		if s.buf.DType() != out.DType() || !s.view.Contiguous() || s.view.Size() != n {
			return false
		}
		st.src[i] = memLoc(s.buf, s.view.Offset)
	}
	if st.compile() != nil {
		return false
	}
	steps := []boundStep{st}
	m.par.parallelFor(n, m.cfg.ParallelThreshold, func(lo, hi int) {
		runSteps(steps, nil, lo, hi-lo)
	})
	return true
}
