package vm

import (
	"slices"

	"bohrium/internal/tensor"
)

// Row-wise sweeps: every same-dtype elementwise sweep — a fused cluster,
// a single instruction, or the producer chain of a reduction epilogue —
// walks its iteration space as rows. A row is a run along which every
// operand advances by one constant stride, so each row splits into blocks
// of at most fusedBlockSize elements and each block calls the bound step
// kernels once (runSteps). A fully contiguous sweep collapses to a single
// row; a stencil over a 2-D grid keeps one row per grid row; a strided,
// reversed or stride-0 run is staged through a scratch tile by the step's
// kernel wrapper (eraseKernel).

// rowLayout splits a sweep's row-major iteration shape into rows. Extent-1
// dimensions drop out; the innermost dimension, merged with every
// enclosing one that all operands traverse at a constant stride, forms
// the row; the remaining dimensions enumerate the rows in row-major order
// (see layoutSteps).
type rowLayout struct {
	shape  []int // the iteration shape
	dims   []int // dimensions enumerating rows, outermost first
	inner  int   // innermost dimension, -1 when all extents are 1
	rowLen int
}

// rows is the number of rows.
func (lay *rowLayout) rows() int {
	n := 1
	for _, d := range lay.dims {
		n *= lay.shape[d]
	}
	return n
}

// rowStart is the buffer index of element 0 of row r in view v.
func (lay *rowLayout) rowStart(v *tensor.View, r int) int {
	idx := v.Offset
	for i := len(lay.dims) - 1; i >= 0; i-- {
		d := lay.dims[i]
		idx += (r % lay.shape[d]) * v.Strides[d]
		r /= lay.shape[d]
	}
	return idx
}

// stride is view v's stride along a row.
func (lay *rowLayout) stride(v *tensor.View) int {
	if lay.inner < 0 {
		return 1
	}
	return v.Strides[lay.inner]
}

// layoutSteps builds the row layout of shape over the memory operands of
// steps (plus extra), points each at its rows, and gives every step
// operand whose row stride is not 1 a gather/scatter tile: one scratch
// slot per (dtype, operand position), appended to slots. It returns the
// layout and the extended slot list.
func layoutSteps(shape []int, steps []boundStep, slots []tensor.DType, extra ...*operandLoc) (rowLayout, []tensor.DType) {
	mem := func(visit func(st *boundStep, pos int, loc *operandLoc)) {
		for i := range steps {
			st := &steps[i]
			for pos, loc := range [3]*operandLoc{&st.dst, &st.src[0], &st.src[1]} {
				if loc.inMemory() {
					visit(st, pos, loc)
				}
			}
		}
		for _, loc := range extra {
			if loc.inMemory() {
				visit(nil, -1, loc)
			}
		}
	}
	lay := rowLayout{shape: shape, inner: -1, rowLen: 1}
	for d := len(shape) - 1; d >= 0 && lay.inner < 0; d-- {
		if shape[d] != 1 {
			lay.inner, lay.rowLen = d, shape[d]
		}
	}
	// Merge enclosing dimensions into the row while every operand steps
	// over them at a constant stride; the rest enumerate rows.
	outer := lay.inner - 1
	for ; outer >= 0; outer-- {
		if shape[outer] == 1 {
			continue
		}
		mergeable := true
		mem(func(_ *boundStep, _ int, loc *operandLoc) {
			strides := loc.view.Strides
			mergeable = mergeable && strides[outer] == strides[lay.inner]*lay.rowLen
		})
		if !mergeable {
			break
		}
		lay.rowLen *= shape[outer]
	}
	for d := 0; d <= outer; d++ {
		if shape[d] != 1 {
			lay.dims = append(lay.dims, d)
		}
	}

	type tileKey struct {
		dt  tensor.DType
		pos int
	}
	var keys []tileKey // keys[i] owns slot first+i
	first := len(slots)
	mem(func(st *boundStep, pos int, loc *operandLoc) {
		loc.step = lay.stride(loc.view)
		if st == nil || loc.step == 1 {
			return
		}
		key := tileKey{st.dtype, pos}
		i := slices.Index(keys, key)
		if i < 0 {
			i = len(keys)
			keys = append(keys, key)
			slots = append(slots, st.dtype)
		}
		loc.tile = int32(first + i)
	})
	return lay, slots
}

// sweep runs bound steps over every element of shape, row by row, in
// blocks of at most fusedBlockSize elements. The element range splits
// across the worker pool exactly as a flat sweep would; each worker range
// holds the scratch tiles its strided operands need from the engine's
// pool for its own duration.
func (m *Machine) sweep(shape tensor.Shape, steps []boundStep) {
	lay, slots := layoutSteps(shape, steps, nil)
	n := lay.rows() * lay.rowLen
	tileLen := min(fusedBlockSize, lay.rowLen)
	pool := m.eng.scratch
	m.par.parallelFor(n, m.cfg.ParallelThreshold, func(lo, hi int) {
		var scratch []tensor.Buffer
		if len(slots) > 0 {
			scratch = make([]tensor.Buffer, len(slots))
			pool.take(slots, tileLen, scratch)
			defer pool.put(scratch)
		}
		r, c := lo/lay.rowLen, lo%lay.rowLen
		for lo < hi {
			k := min(fusedBlockSize, lay.rowLen-c, hi-lo)
			runSteps(steps, scratch, &lay, r, c, k)
			lo, c = lo+k, c+k
			if c == lay.rowLen {
				r, c = r+1, 0
			}
		}
	})
}

// cursor addresses one operand over an index space: the buffer index of
// row-major element i of dims.
type cursor struct {
	offset  int
	strides []int
}

// seek returns the buffer index of element i of dims.
func (c cursor) seek(dims []int, i int) int {
	idx := c.offset
	for d := len(dims) - 1; d >= 0; d-- {
		if dims[d] == 0 {
			continue
		}
		idx += (i % dims[d]) * c.strides[d]
		i /= dims[d]
	}
	return idx
}

// viewInjective conservatively reports whether a view addresses each
// buffer element at most once — required for the result view of a fused
// (and chunk-parallel) sweep. The sufficient condition: sorting dims by
// |stride|, each stride must exceed the maximum span of the dims below it.
func viewInjective(v tensor.View) bool {
	type ds struct{ stride, extent int }
	var small [4]ds
	dims := small[:0]
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
	slices.SortFunc(dims, func(a, b ds) int { return a.stride - b.stride })
	span := 0
	for _, d := range dims {
		if d.stride <= span {
			return false
		}
		span += (d.extent - 1) * d.stride
	}
	return true
}
