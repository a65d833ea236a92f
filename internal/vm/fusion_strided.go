package vm

import (
	"fmt"
	"sort"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Strided fused execution: clusters whose operands share one iteration
// shape but are not contiguous (stencil views over a 2-D grid, strided
// slices) run as a single sweep with one shared odometer driving a cursor
// per operand. Each odometer advance in dimension d moves every cursor by
// a precomputed delta — O(1) per element, no per-element index math.
// Element access is compiled per step for the step's storage dtype, with
// the same computation-class semantics as the contiguous loops.

// cursor tracks one operand's buffer position along the shared iteration
// shape. It carries positions only; typed array access lives in the step
// closures.
type cursor struct {
	// offset is the start index for element 0 of the iteration space.
	offset int
	// strides are per-dimension element strides in the shared shape.
	strides []int
	// delta[d] is the index change when the odometer increments dim d
	// (after all lower dims reset to zero).
	delta []int
	idx   int
}

func newCursor(v tensor.View) *cursor {
	n := v.NDim()
	c := &cursor{offset: v.Offset, strides: append([]int(nil), v.Strides...), delta: make([]int, n)}
	for d := 0; d < n; d++ {
		back := 0
		for k := d + 1; k < n; k++ {
			back += (v.Shape[k] - 1) * v.Strides[k]
		}
		c.delta[d] = v.Strides[d] - back
	}
	return c
}

// seek positions the cursor at linear element i of the iteration shape.
func (c *cursor) seek(shape []int, i int) {
	idx := c.offset
	for d := len(shape) - 1; d >= 0; d-- {
		if shape[d] == 0 {
			continue
		}
		idx += (i % shape[d]) * c.strides[d]
		i /= shape[d]
	}
	c.idx = idx
}

// stridedStep executes one compiled instruction at the cursors' current
// positions.
type stridedStep func()

// typedOperand is a source operand of a strided step: a typed array walked
// by a cursor, or a constant carried in both computation classes.
type typedOperand[T tensor.Elem] struct {
	arr []T
	cur *cursor // nil for constants
	cf  float64
	ci  int64
}

// execClusterStrided runs a same-shape cluster as one fused sweep.
func (m *Machine) execClusterStrided(p *bytecode.Program, cl cluster, shape tensor.Shape) error {
	build := func() ([]stridedStep, []*cursor, error) {
		var steps []stridedStep
		var cursors []*cursor
		for i := cl.start; i < cl.end; i++ {
			step, err := m.compileStridedStep(p, &p.Instrs[i], shape, &cursors)
			if err != nil {
				return nil, nil, instrErr(p, i, err)
			}
			steps = append(steps, step)
		}
		return steps, cursors, nil
	}

	// Validate compilation once up front (register allocation errors
	// surface before any goroutine runs).
	if _, _, err := build(); err != nil {
		return err
	}

	n := shape.Size()
	m.stats.instructions.Add(int64(cl.end - cl.start))
	m.stats.fusedInstructions.Add(int64(cl.end - cl.start))
	m.countFusedDTypes(p, cl.start, cl.end)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(n * (cl.end - cl.start)))

	var firstErr error
	m.par.parallelFor(n, m.cfg.ParallelThreshold, func(lo, hi int) {
		// Each chunk compiles its own cursor set (independent positions).
		steps, cursors, err := build()
		if err != nil {
			firstErr = err
			return
		}
		dims := []int(shape)
		for _, c := range cursors {
			c.seek(dims, lo)
		}
		coords := unflatten(dims, lo)
		for i := lo; i < hi; i++ {
			for _, step := range steps {
				step()
			}
			// Advance the shared odometer and every cursor by the
			// matching per-dimension delta.
			for d := len(dims) - 1; d >= 0; d-- {
				coords[d]++
				if coords[d] < dims[d] {
					for _, c := range cursors {
						c.idx += c.delta[d]
					}
					break
				}
				coords[d] = 0
			}
		}
	})
	return firstErr
}

// compileStridedStep compiles one instruction for the odometer sweep,
// dispatching on the output register's storage dtype. New cursors are
// appended to *cursors so the caller can drive them with the odometer.
func (m *Machine) compileStridedStep(p *bytecode.Program, in *bytecode.Instruction, shape tensor.Shape, cursors *[]*cursor) (stridedStep, error) {
	outBuf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return nil, err
	}
	switch outBuf.DType() {
	case tensor.Float64:
		return compileStridedTyped[float64](m, p, in, outBuf, shape, cursors)
	case tensor.Float32:
		return compileStridedTyped[float32](m, p, in, outBuf, shape, cursors)
	case tensor.Int64:
		return compileStridedTyped[int64](m, p, in, outBuf, shape, cursors)
	case tensor.Int32:
		return compileStridedTyped[int32](m, p, in, outBuf, shape, cursors)
	case tensor.Bool, tensor.Uint8:
		return compileStridedTyped[uint8](m, p, in, outBuf, shape, cursors)
	default:
		return nil, fmt.Errorf("fused output %s has unsupported dtype %v", in.Out.Reg, outBuf.DType())
	}
}

func compileStridedTyped[T tensor.Elem](m *Machine, p *bytecode.Program, in *bytecode.Instruction, outBuf tensor.Buffer, shape tensor.Shape, cursors *[]*cursor) (stridedStep, error) {
	dstArr, ok := tensor.RawSlice[T](outBuf)
	if !ok {
		return nil, fmt.Errorf("fused output %s is not %v", in.Out.Reg, outBuf.DType())
	}
	dstCur := newCursor(in.Out.View)
	*cursors = append(*cursors, dstCur)

	ins := make([]typedOperand[T], 0, 2)
	for _, opnd := range in.Inputs() {
		if opnd.IsConst() {
			ins = append(ins, typedOperand[T]{cf: opnd.Const.Float(), ci: opnd.Const.Int()})
			continue
		}
		buf, err := m.regs.ensure(p, opnd.Reg)
		if err != nil {
			return nil, err
		}
		arr, ok := tensor.RawSlice[T](buf)
		if !ok {
			return nil, fmt.Errorf("fused input %s is not %v", opnd.Reg, outBuf.DType())
		}
		// Broadcast singleton inputs to the shared shape so the cursor's
		// strides align with the odometer.
		view := opnd.View
		if !view.Shape.Equal(shape) {
			bv, err := view.BroadcastTo(shape)
			if err != nil {
				return nil, err
			}
			view = bv
		}
		cur := newCursor(view)
		*cursors = append(*cursors, cur)
		ins = append(ins, typedOperand[T]{arr: arr, cur: cur})
	}
	return makeStridedStep(outBuf.DType(), in.Op, dstArr, dstCur, ins)
}

// loadFloat/loadInt build class loaders reading the operand at its
// cursor's current position.
func loadFloat[T tensor.Elem](o typedOperand[T]) func() float64 {
	if o.cur == nil {
		c := o.cf
		return func() float64 { return c }
	}
	arr, cur := o.arr, o.cur
	return func() float64 { return float64(arr[cur.idx]) }
}

func loadInt[T tensor.Elem](o typedOperand[T]) func() int64 {
	if o.cur == nil {
		c := o.ci
		return func() int64 { return c }
	}
	arr, cur := o.arr, o.cur
	return func() int64 { return int64(arr[cur.idx]) }
}

// makeStridedStep compiles the per-element body for one instruction with
// the same class rules as compileKernel: float dtypes use the float64
// kernels, integer dtypes the int64 kernels (float fallback when none),
// bool normalizes every store to 0/1.
func makeStridedStep[T tensor.Elem](dt tensor.DType, op bytecode.Opcode, dstArr []T, dstCur *cursor, ins []typedOperand[T]) (stridedStep, error) {
	isBool := dt == tensor.Bool
	switch len(ins) {
	case 1:
		if !dt.IsFloat() {
			if k, ok := intUnaryKernel(op); ok {
				la := loadInt(ins[0])
				if isBool {
					return func() { dstArr[dstCur.idx] = b01[T](k(la()) != 0) }, nil
				}
				return func() { dstArr[dstCur.idx] = T(k(la())) }, nil
			}
		}
		k, ok := floatUnaryKernel(op)
		if !ok {
			return nil, fmt.Errorf("no unary kernel for %s", op)
		}
		la := loadFloat(ins[0])
		if isBool {
			return func() { dstArr[dstCur.idx] = b01[T](k(la()) != 0) }, nil
		}
		return func() { dstArr[dstCur.idx] = T(k(la())) }, nil
	case 2:
		if !dt.IsFloat() {
			if k, ok := intBinaryKernel(op); ok {
				la, lb := loadInt(ins[0]), loadInt(ins[1])
				if isBool {
					return func() { dstArr[dstCur.idx] = b01[T](k(la(), lb()) != 0) }, nil
				}
				return func() { dstArr[dstCur.idx] = T(k(la(), lb())) }, nil
			}
		}
		k, ok := floatBinaryKernel(op)
		if !ok {
			return nil, fmt.Errorf("no binary kernel for %s", op)
		}
		la, lb := loadFloat(ins[0]), loadFloat(ins[1])
		if isBool {
			return func() { dstArr[dstCur.idx] = b01[T](k(la(), lb()) != 0) }, nil
		}
		return func() { dstArr[dstCur.idx] = T(k(la(), lb())) }, nil
	default:
		return nil, fmt.Errorf("fused %s has %d inputs", op, len(ins))
	}
}

func unflatten(dims []int, i int) []int {
	coords := make([]int, len(dims))
	for d := len(dims) - 1; d >= 0; d-- {
		if dims[d] == 0 {
			continue
		}
		coords[d] = i % dims[d]
		i /= dims[d]
	}
	return coords
}

// viewInjective conservatively reports whether a view addresses each
// buffer element at most once — required for the result view of a fused
// (and chunk-parallel) sweep. The sufficient condition: sorting dims by
// |stride|, each stride must exceed the maximum span of the dims below it.
func viewInjective(v tensor.View) bool {
	type ds struct{ stride, extent int }
	dims := make([]ds, 0, v.NDim())
	for d := 0; d < v.NDim(); d++ {
		if v.Shape[d] == 1 {
			continue // singleton dims address one point regardless of stride
		}
		s := v.Strides[d]
		if s < 0 {
			s = -s
		}
		if s == 0 {
			return false // repeated writes to the same element
		}
		dims = append(dims, ds{stride: s, extent: v.Shape[d]})
	}
	sort.Slice(dims, func(i, j int) bool { return dims[i].stride < dims[j].stride })
	span := 0
	for _, d := range dims {
		if d.stride <= span {
			return false
		}
		span += (d.extent - 1) * d.stride
	}
	return true
}
