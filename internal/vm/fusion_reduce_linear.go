package vm

import (
	"fmt"
	"sync"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Blockwise linear epilogue: when every operand of the producer cluster
// is contiguous over the shared shape, the folded sweep keeps the
// compiled kernels of execCluster instead of interpreting steps per
// element. Each producer step is bound once per sweep (boundStep):
// virtual registers live in scratch tiles, live registers write through
// to real memory. Each worker range takes one scratch set — a tile per
// virtual register, sized to the largest block the sweep strategy hands
// the worker — from the engine's scratch pool, and returns it when the
// range ends. Producer kernels run block by block into scratch, and the
// reduction folds each block in order the moment it is produced. The
// element order of every line/chunk fold is unchanged, so results stay
// bit-identical to the two-sweep path and independent of both the worker
// count and the block size.

// scratchPool is the engine's free list of epilogue scratch tiles, one
// list per dtype, shared by every session. Tiles live outside the register
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

// linTileLen is the scratch tile length for a sweep: the largest block the
// strategy hands one worker. Short lines pack into blocks of at most
// fusedBlockSize elements, no block exceeds the sweep's element count, and
// under sweepChunkAxis no block exceeds one chunk.
func linTileLen(plan *epiPlan, strategy sweepStrategy) int {
	n := min(fusedBlockSize, plan.lines*plan.axLen)
	if strategy == sweepChunkAxis {
		size, _ := chunkParams(plan.axLen)
		n = min(n, size)
	}
	return n
}

// resolveLinSteps locates every operand of the plan's steps for one
// sweep — a scratch slot, a window of a real buffer, or a constant — and
// returns the steps plus the reduction source's locator. Kernels compile
// separately (boundStep.compile), after the caller's alias check.
func (m *Machine) resolveLinSteps(p *bytecode.Program, plan *epiPlan) ([]boundStep, operandLoc, error) {
	steps := make([]boundStep, len(plan.steps))
	for i := range plan.steps {
		sd := &plan.steps[i]
		st := &steps[i]
		*st = boundStep{index: sd.index, op: sd.in.Op, dtype: sd.dtype, nargs: len(sd.srcs), src: [2]operandLoc{noLoc, noLoc}}
		if sd.matDst {
			buf, err := m.regs.ensure(p, sd.in.Out.Reg)
			if err != nil {
				return nil, noLoc, instrErr(p, sd.index, err)
			}
			st.dst = memLoc(buf, sd.in.Out.View.Offset)
		} else {
			st.dst = operandLoc{slot: sd.outSlot}
		}
		for j := range sd.srcs {
			d := &sd.srcs[j]
			switch {
			case d.isConst:
				st.args[j] = kArg{isConst: true, cf: d.cf, ci: d.ci}
			case d.slot >= 0 && !plan.mat[d.reg]:
				st.src[j] = operandLoc{slot: d.slot}
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
					return nil, noLoc, instrErr(p, sd.index, err)
				}
				st.src[j] = memLoc(buf, d.view.Offset)
			}
		}
	}
	pReg := plan.red.In1.Reg
	if !plan.mat[pReg] {
		return steps, operandLoc{slot: plan.pSlot}, nil
	}
	pBuf, err := m.regs.ensure(p, pReg)
	if err != nil {
		return nil, noLoc, instrErr(p, plan.redIdx, err)
	}
	return steps, memLoc(pBuf, plan.red.In1.View.Offset), nil
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

// tryLinearEpilogue runs the folded sweep over contiguous operands with
// blockwise compiled producer kernels. Returns (false, nil) when the
// reduction output aliases a producer buffer; no scratch is taken before
// that check, so the fallback leaves nothing to return.
func (m *Machine) tryLinearEpilogue(p *bytecode.Program, plan *epiPlan, outBuf tensor.Buffer) (bool, error) {
	steps, src, err := m.resolveLinSteps(p, plan)
	if err != nil {
		return false, err
	}
	for i := range steps {
		st := &steps[i]
		if st.dst.buf == outBuf || st.src[0].buf == outBuf || st.src[1].buf == outBuf {
			return false, nil
		}
	}
	// Compile every kernel before any goroutine runs.
	for i := range steps {
		if err := steps[i].compile(); err != nil {
			return false, instrErr(p, steps[i].index, err)
		}
	}

	m.countEpilogueStats(p, plan)
	strategy := m.sweepStrategyFor(plan.red.Out.View, plan.lines, plan.axLen)
	base, _ := plan.red.Op.ReduceBase()
	if plan.intRed {
		k, ok := intBinaryKernel(base)
		if !ok {
			return false, instrErr(p, plan.redIdx, fmt.Errorf("no int kernel for %s", base))
		}
		runLinEpilogue(m, plan, steps, src, strategy, outBuf,
			k, tensor.Buffer.GetInt, tensor.Buffer.SetInt, foldBlockInt)
		return true, nil
	}
	k, ok := floatBinaryKernel(base)
	if !ok {
		return false, instrErr(p, plan.redIdx, fmt.Errorf("no kernel for %s", base))
	}
	runLinEpilogue(m, plan, steps, src, strategy, outBuf,
		k, tensor.Buffer.Get, tensor.Buffer.Set, foldBlockFloat)
	return true, nil
}

// linOutIndexer maps a line number to its output buffer index.
func linOutIndexer(plan *epiPlan) func(l int) int {
	if !plan.outSeek {
		off := plan.red.Out.View.Offset
		return func(int) int { return off }
	}
	cur := newCursor(plan.red.Out.View)
	dims := plan.lineDims
	return func(l int) int {
		cur.seek(dims, l)
		return cur.idx
	}
}

// runLinEpilogue drives the blockwise fold with the chosen strategy.
// Every fold visits its line (or chunk) elements strictly in order, so
// the result is bit-identical to the two-sweep path under the same
// strategy, and — as in reduce.go — independent of the worker count.
// Each worker range holds one scratch set from the engine's pool for
// exactly its own duration.
func runLinEpilogue[E int64 | float64](m *Machine, plan *epiPlan, steps []boundStep, src operandLoc,
	strategy sweepStrategy, out tensor.Buffer,
	k func(a, b E) E, get func(tensor.Buffer, int) E, set func(tensor.Buffer, int, E),
	fold func(tensor.Buffer, int, int, func(a, b E) E, E) E) {

	lines, axLen := plan.lines, plan.axLen
	pool, tileLen := m.eng.scratch, linTileLen(plan, strategy)
	takeScratch := func() []tensor.Buffer {
		scratch := make([]tensor.Buffer, plan.nSlots)
		pool.take(plan.slotDT, tileLen, scratch)
		return scratch
	}

	// foldRange folds the producer values of flat elements
	// [gLo, gLo+n) in order. seeded reports whether acc already holds a
	// value; the first element otherwise seeds the fold, exactly like the
	// first-element-seeded folds of reduce.go.
	foldRange := func(scratch []tensor.Buffer, gLo, n int, acc E, seeded bool) E {
		runSteps(steps, scratch, gLo, n)
		buf, lo := src.window(scratch, gLo)
		if !seeded {
			acc = get(buf, lo)
			return fold(buf, lo+1, lo+n, k, acc)
		}
		return fold(buf, lo, lo+n, k, acc)
	}

	// foldSpan folds one contiguous span [start, end) of a line in
	// blockwise sub-ranges, preserving element order.
	foldSpan := func(scratch []tensor.Buffer, lineBase, start, end int) E {
		var acc E
		for b := start; b < end; b += fusedBlockSize {
			acc = foldRange(scratch, lineBase+b, min(fusedBlockSize, end-b), acc, b > start)
		}
		return acc
	}

	// processLines folds whole lines [lLo, lHi). Short lines share one
	// producer block; long lines split into sub-blocks.
	processLines := func(oi func(int) int, lLo, lHi int) {
		scratch := takeScratch()
		defer pool.put(scratch)
		if axLen >= fusedBlockSize {
			for l := lLo; l < lHi; l++ {
				set(out, oi(l), foldSpan(scratch, l*axLen, 0, axLen))
			}
			return
		}
		perBlock := fusedBlockSize / axLen
		for lb := lLo; lb < lHi; lb += perBlock {
			le := min(lb+perBlock, lHi)
			runSteps(steps, scratch, lb*axLen, (le-lb)*axLen)
			buf, base := src.window(scratch, lb*axLen)
			for l := lb; l < le; l, base = l+1, base+axLen {
				acc := get(buf, base)
				acc = fold(buf, base+1, base+axLen, k, acc)
				set(out, oi(l), acc)
			}
		}
	}

	switch strategy {
	case sweepSplitOutputs:
		m.par.parallelFor(lines, 2, func(lo, hi int) {
			processLines(linOutIndexer(plan), lo, hi)
		})
	case sweepChunkAxis:
		outIdx := linOutIndexer(plan)
		size, nc := chunkParams(axLen)
		partials := make([]E, nc)
		for l := 0; l < lines; l++ {
			base := l * axLen
			m.par.parallelFor(nc, 2, func(cLo, cHi int) {
				scratch := takeScratch()
				defer pool.put(scratch)
				for c := cLo; c < cHi; c++ {
					start, end := chunkBounds(c, size, axLen)
					partials[c] = foldSpan(scratch, base, start, end)
				}
			})
			acc := partials[0]
			for c := 1; c < nc; c++ {
				acc = k(acc, partials[c])
			}
			set(out, outIdx(l), acc)
		}
	default:
		processLines(linOutIndexer(plan), 0, lines)
	}
}
