package vm

import (
	"sync"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// The epilogue sweep: each producer step is bound once per sweep
// (boundStep) with the compiled kernels of execCluster. Virtual registers
// live in scratch tiles, live registers write to real memory. The sweep's
// iteration space is the cluster's shape with the reduced axis moved
// innermost, so each line is one constant-stride run and lines that sit
// back to back in every operand share a row (sweep.go). Each worker range
// takes one scratch set — a tile per virtual register and per strided
// run, sized to the largest block the sweep strategy hands the worker —
// from the engine's scratch pool, and returns it when the range ends.
// Producer kernels run block by block into scratch, and the reduction
// folds each block in order the moment it is produced. The element order
// of every line/chunk fold is the interpreter's, so results stay
// bit-identical to the two-sweep path and independent of both the worker
// count and the block size.

// scratchPool is the engine's free list of sweep scratch tiles — the
// epilogue's virtual registers and the tiles strided runs are staged
// through — one list per dtype, shared by every session. Tiles live outside the register
// file: they never touch the buffer counters, the recycle pool or the
// memory watermark — that is the "no materialized temporary" the epilogue
// promises. A tile's contents are garbage on reuse; a virtual register is
// always written before it is read within a block.
type scratchPool struct {
	mu   sync.Mutex
	free map[tensor.DType][]tensor.Buffer // guarded by mu
}

// maxScratchPerDType caps each dtype's free list. Tiles hold at most
// fusedBlockSize elements, so a list pins at most 4 MiB of float64s.
const maxScratchPerDType = 64

func newScratchPool() *scratchPool {
	return &scratchPool{free: map[tensor.DType][]tensor.Buffer{}}
}

// take fills set with one tile per entry of dts, each holding at least n
// elements: the smallest parked tile that fits, or a fresh one.
func (sp *scratchPool) take(dts []tensor.DType, n int, set []tensor.Buffer) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for s, dt := range dts {
		list := sp.free[dt]
		best := -1
		for i, t := range list {
			if t.Len() >= n && (best < 0 || t.Len() < list[best].Len()) {
				best = i
			}
		}
		if best < 0 {
			set[s] = tensor.MustBuffer(dt, n)
			continue
		}
		last := len(list) - 1
		set[s], list[best], list[last] = list[best], list[last], nil
		sp.free[dt] = list[:last]
	}
}

// put parks every tile of set for reuse and clears set. A full list keeps
// its largest tiles, which fit every request the smaller ones did, so
// interleaved sweeps of different sizes cannot pin it to tiles too small
// for the larger ones.
func (sp *scratchPool) put(set []tensor.Buffer) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for i, t := range set {
		set[i] = nil
		dt := t.DType()
		list := sp.free[dt]
		if len(list) < maxScratchPerDType {
			sp.free[dt] = append(list, t)
			continue
		}
		small := 0
		for j := range list {
			if list[j].Len() < list[small].Len() {
				small = j
			}
		}
		if t.Len() > list[small].Len() {
			list[small] = t
		}
	}
}

// drain hands every parked tile to the GC — part of the engine's
// memory-pressure shed.
func (sp *scratchPool) drain() {
	sp.mu.Lock()
	sp.free = map[tensor.DType][]tensor.Buffer{}
	sp.mu.Unlock()
}

// epiTileLen is the scratch tile length for a sweep: the largest block
// the strategy hands one worker. Short lines pack into blocks of at most
// fusedBlockSize elements, no block exceeds the sweep's element count, and
// under sweepChunkAxis no block exceeds one chunk.
func epiTileLen(plan *epiPlan, strategy sweepStrategy) int {
	n := min(fusedBlockSize, plan.lines*plan.axLen)
	if strategy == sweepChunkAxis {
		size, _ := chunkParams(plan.axLen)
		n = min(n, size)
	}
	return n
}

// epiSweep is one execution's binding of an epilogue plan.
type epiSweep struct {
	steps []boundStep
	src   operandLoc     // the reduction input: a slot, or unit-stride memory
	lay   rowLayout      // over the cluster's shape with the axis innermost
	slots []tensor.DType // virtual registers, then staging tiles
}

// axisLast is v with dimension axis moved innermost.
func axisLast(v tensor.View, axis int) tensor.View {
	lines, stride, extent := removeAxis(v, axis)
	lines.Shape = append(lines.Shape, extent)
	lines.Strides = append(lines.Strides, stride)
	return lines
}

// bindEpilogue locates every operand of the plan's steps for one sweep —
// a scratch slot, a memory view, or a constant —, compiles each step, and
// lays the sweep out in rows.
func (m *Machine) bindEpilogue(p *bytecode.Program, plan *epiPlan) (*epiSweep, error) {
	// The full slice expression makes any append copy: the plan is shared.
	sw := &epiSweep{steps: make([]boundStep, len(plan.steps)), slots: plan.slotDT[:len(plan.slotDT):len(plan.slotDT)]}
	for i := range plan.steps {
		sd := &plan.steps[i]
		st := &sw.steps[i]
		*st = boundStep{op: sd.in.Op, dtype: sd.dtype, src: [2]operandLoc{noLoc, noLoc}}
		var args [2]kArg
		if sd.matDst {
			buf, err := m.regs.ensure(p, sd.in.Out.Reg)
			if err != nil {
				return nil, instrErr(p, sd.index, err)
			}
			st.dst = memLoc(buf, &sd.outView)
		} else {
			st.dst = slotLoc(sd.outSlot)
		}
		for j := range sd.srcs {
			d := &sd.srcs[j]
			switch {
			case d.isConst:
				args[j] = kArg{isConst: true, cf: d.cf, ci: d.ci}
			case d.slot >= 0 && !plan.mat[d.reg]:
				st.src[j] = slotLoc(d.slot)
			default:
				// Memory read: an external register, or a cluster-written
				// register that materializes — its values land in real
				// memory block-by-block before this step's kernel runs.
				var buf tensor.Buffer
				var err error
				if _, written := plan.slotOf[d.reg]; written {
					buf, err = m.regs.ensure(p, d.reg)
				} else {
					buf, err = m.regs.input(p, d.reg)
				}
				if err != nil {
					return nil, instrErr(p, sd.index, err)
				}
				st.src[j] = memLoc(buf, &d.view)
			}
		}
		if err := st.compile(args[:len(sd.srcs)]); err != nil {
			return nil, instrErr(p, sd.index, err)
		}
	}
	sw.src = slotLoc(plan.pSlot)
	pReg := plan.red.In1.Reg
	if plan.mat[pReg] {
		pBuf, err := m.regs.ensure(p, pReg)
		if err != nil {
			return nil, instrErr(p, plan.redIdx, err)
		}
		sw.src = memLoc(pBuf, &plan.pView)
	}
	sw.lay, sw.slots = layoutSteps(plan.sweep, sw.steps, sw.slots, &sw.src)
	if sw.src.slot < 0 && sw.src.step != 1 {
		// The folds read unit-stride windows: a copy step stages a strided
		// reduction input through one more slot.
		pInfo, _ := p.Reg(pReg)
		slot, tile := len(sw.slots), len(sw.slots)+1
		sw.slots = append(sw.slots, pInfo.DType, pInfo.DType)
		in := sw.src
		in.tile = int32(tile)
		cp := boundStep{op: bytecode.OpIdentity, dtype: pInfo.DType, dst: slotLoc(slot), src: [2]operandLoc{in, noLoc}}
		if err := cp.compile(make([]kArg, 1)); err != nil {
			return nil, instrErr(p, plan.redIdx, err)
		}
		sw.steps = append(sw.steps, cp)
		sw.src = slotLoc(slot)
	}
	return sw, nil
}

// foldBlockFloat folds buf[lo:hi) into acc in element order with the
// float64-class kernel, widening each element exactly as Buffer.Get does.
func foldBlockFloat(buf tensor.Buffer, lo, hi int, k func(a, b float64) float64, acc float64) float64 {
	switch b := buf.(type) {
	case *tensor.Data[float64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, v)
		}
	case *tensor.Data[float32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	case *tensor.Data[int64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	case *tensor.Data[int32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	case *tensor.Data[uint8]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	}
	return acc
}

// foldBlockInt is foldBlockFloat for the exact int64 class.
func foldBlockInt(buf tensor.Buffer, lo, hi int, k func(a, b int64) int64, acc int64) int64 {
	switch b := buf.(type) {
	case *tensor.Data[int64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, v)
		}
	case *tensor.Data[int32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	case *tensor.Data[uint8]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	case *tensor.Data[float64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	case *tensor.Data[float32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	}
	return acc
}

// epiOutIndexer maps a line number to its output buffer index.
func epiOutIndexer(plan *epiPlan) func(l int) int {
	out := plan.red.Out.View
	if !plan.outSeek {
		return func(int) int { return out.Offset }
	}
	cur := cursor{offset: out.Offset, strides: out.Strides}
	return func(l int) int { return cur.seek(plan.lineDims, l) }
}

// lineFold is a reduction's fold over accumulator A: fold folds the n
// unit-stride elements of buf from lo, whose axis positions start at j0,
// into acc (seeding it from the first element unless seeded); combine
// merges chunk partials in chunk order; store writes a line's result.
type lineFold[A any] struct {
	fold    func(buf tensor.Buffer, lo, n, j0 int, acc A, seeded bool) A
	combine func(a, b A) A
	store   func(out tensor.Buffer, i int, acc A)
}

// plainFold folds with a reduction's base kernel k, seeding from the
// first element exactly like the folds of reduce.go.
func plainFold[E int64 | float64](k func(a, b E) E, get func(tensor.Buffer, int) E, set func(tensor.Buffer, int, E),
	block func(tensor.Buffer, int, int, func(a, b E) E, E) E) lineFold[E] {
	return lineFold[E]{
		fold: func(buf tensor.Buffer, lo, n, _ int, acc E, seeded bool) E {
			if !seeded {
				acc = get(buf, lo)
				lo, n = lo+1, n-1
			}
			return block(buf, lo, lo+n, k, acc)
		},
		combine: k,
		store:   set,
	}
}

// argAcc is an index reduction's accumulator: the best value so far and
// its axis position.
type argAcc[E int64 | float64] struct {
	v E
	i int
}

// argFold folds a (value, index) pair with runArgReduce's comparisons:
// the lowest index wins ties, and combining chunk partials in chunk order
// reproduces the serial winner exactly.
func argFold[E int64 | float64](better func(v, best E) bool, get func(tensor.Buffer, int) E) lineFold[argAcc[E]] {
	return lineFold[argAcc[E]]{
		fold: func(buf tensor.Buffer, lo, n, j0 int, acc argAcc[E], seeded bool) argAcc[E] {
			for i := 0; i < n; i++ {
				if v := get(buf, lo+i); !seeded || better(v, acc.v) {
					acc, seeded = argAcc[E]{v, j0 + i}, true
				}
			}
			return acc
		},
		combine: func(a, b argAcc[E]) argAcc[E] {
			if better(b.v, a.v) {
				return b
			}
			return a
		},
		store: func(out tensor.Buffer, i int, acc argAcc[E]) { out.SetInt(i, int64(acc.i)) },
	}
}

// runEpilogue drives the blockwise fold with the chosen strategy. Every
// fold visits its line (or chunk) elements strictly in order, so the
// result is bit-identical to the two-sweep path under the same strategy,
// and — as in reduce.go — independent of the worker count. Each worker
// range holds one scratch set from the engine's pool for exactly its own
// duration.
func runEpilogue[A any](m *Machine, plan *epiPlan, sw *epiSweep, strategy sweepStrategy, out tensor.Buffer, f lineFold[A]) {
	lines, axLen := plan.lines, plan.axLen
	if lines == 0 {
		return
	}
	lay, steps := &sw.lay, sw.steps
	perRow := lay.rowLen / axLen // lines per row
	pool, tileLen := m.eng.scratch, epiTileLen(plan, strategy)
	takeScratch := func() []tensor.Buffer {
		scratch := make([]tensor.Buffer, len(sw.slots))
		pool.take(sw.slots, tileLen, scratch)
		return scratch
	}

	// foldSpan folds axis positions [start, end) of line l in blockwise
	// sub-ranges, preserving element order.
	foldSpan := func(scratch []tensor.Buffer, l, start, end int) A {
		r, c := l/perRow, l%perRow*axLen
		var acc A
		for b := start; b < end; b += fusedBlockSize {
			n := min(fusedBlockSize, end-b)
			runSteps(steps, scratch, lay, r, c+b, n)
			s := sw.src.span(scratch, lay, r, c+b)
			acc = f.fold(s.buf, s.off, n, b, acc, b > start)
		}
		return acc
	}

	// processLines folds whole lines [lLo, lHi). Short lines of one row
	// share one producer block; long lines split into sub-blocks.
	processLines := func(oi func(int) int, lLo, lHi int) {
		scratch := takeScratch()
		defer pool.put(scratch)
		if axLen >= fusedBlockSize {
			for l := lLo; l < lHi; l++ {
				f.store(out, oi(l), foldSpan(scratch, l, 0, axLen))
			}
			return
		}
		perBlock := fusedBlockSize / axLen
		for lb := lLo; lb < lHi; {
			r, q := lb/perRow, lb%perRow
			le := min(lb+perBlock, lHi, lb-q+perRow)
			runSteps(steps, scratch, lay, r, q*axLen, (le-lb)*axLen)
			s := sw.src.span(scratch, lay, r, q*axLen)
			for l, base := lb, s.off; l < le; l, base = l+1, base+axLen {
				var zero A
				f.store(out, oi(l), f.fold(s.buf, base, axLen, 0, zero, false))
			}
			lb = le
		}
	}

	switch strategy {
	case sweepSplitOutputs:
		m.par.parallelFor(lines, 2, func(lo, hi int) {
			processLines(epiOutIndexer(plan), lo, hi)
		})
	case sweepChunkAxis:
		outIdx := epiOutIndexer(plan)
		size, nc := chunkParams(axLen)
		partials := make([]A, nc)
		for l := 0; l < lines; l++ {
			m.par.parallelFor(nc, 2, func(cLo, cHi int) {
				scratch := takeScratch()
				defer pool.put(scratch)
				for c := cLo; c < cHi; c++ {
					start, end := chunkBounds(c, size, axLen)
					partials[c] = foldSpan(scratch, l, start, end)
				}
			})
			acc := partials[0]
			for c := 1; c < nc; c++ {
				acc = f.combine(acc, partials[c])
			}
			f.store(out, outIdx(l), acc)
		}
	default:
		processLines(epiOutIndexer(plan), 0, lines)
	}
}
