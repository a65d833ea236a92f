package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bohrium"
	"bohrium/internal/bytecode"
)

// inproc is the shared shape of the in-process workloads: one session on
// a default runtime, driven by one load goroutine (a Context is not safe
// for concurrent use; the VM's worker pool supplies the parallelism).
type inproc struct {
	rt  *bohrium.Runtime
	ctx *bohrium.Context
	rp  *replayer // traced runs only
}

func newInproc(traced bool) (*inproc, error) {
	rt := bohrium.NewRuntime(nil)
	w := &inproc{rt: rt, ctx: rt.NewContext(nil)}
	if traced {
		rp, err := newReplayer(rt.Engine(), replayer{parametric: true}, true)
		if err != nil {
			w.close()
			return nil, err
		}
		w.rp = rp
	}
	return w, nil
}

func (w *inproc) clients() int { return 1 }

func (w *inproc) counters() counters {
	st, err := w.ctx.Stats()
	if err != nil {
		return counters{}
	}
	return counters{vm: st}
}

func (w *inproc) close() {
	if w.rp != nil {
		w.rp.close()
	}
	w.ctx.Close()
	w.rt.Close()
}

// flush flushes the pending batch (set-up only: ops flush by reading).
// A traced run captures the batch first and replays it layer by layer
// after the real flush; the replay backend sees every batch from the
// session's first, so its registers mirror the session's.
func (w *inproc) flush(c *client) error {
	if w.rp == nil {
		return w.ctx.Flush()
	}
	p := w.ctx.PendingProgram()
	err := w.ctx.Flush()
	if err != nil || p.Len() == 0 {
		return err
	}
	markOutputs(p)
	return w.rp.run(p, &c.lay)
}

// result reads an op's result. As in any lazy program, the read is what
// seals and flushes the op's batch: it records a BH_SYNC of the result
// and flushes, so one op is one flush. The read's time is the op's read
// latency. A traced run captures the batch before the read, appends the
// BH_SYNC of sync (the operand the read fences) and replays it, then
// reads again to time the read path alone over a flushed batch.
func (w *inproc) result(c *client, sync func(p *bytecode.Program) bytecode.Operand, read func() (float64, error)) (float64, error) {
	var p *bytecode.Program
	if w.rp != nil {
		p = w.ctx.PendingProgram()
	}
	t0 := time.Now()
	v, err := read()
	d := time.Since(t0)
	c.read(d)
	if w.rp == nil || err != nil {
		return v, err
	}
	c.lay.flush += d
	if p.Len() > 0 {
		p.EmitSync(sync(p))
		markOutputs(p)
		if err := w.rp.run(p, &c.lay); err != nil {
			return v, err
		}
	}
	t1 := time.Now()
	_, err = read()
	c.lay.read += time.Since(t1)
	return v, err
}

// lastOut is the output of a batch's last computing instruction (BH_FREEs
// of temporaries may follow it): where an op that ends in its result
// leaves it.
func lastOut(p *bytecode.Program) bytecode.Operand {
	for i := len(p.Instrs) - 1; i > 0; i-- {
		if p.Instrs[i].Op != bytecode.OpFree {
			return p.Instrs[i].Out
		}
	}
	return p.Instrs[0].Out
}

// closeTo reports whether got is within the soundness suite's float
// tolerance of want (rtol = atol = 1e-9).
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9+1e-9*math.Abs(want)
}

// arena frees every temporary an op created, in the batch that made it.
type arena []*bohrium.Array

func (a *arena) t(x *bohrium.Array) *bohrium.Array {
	*a = append(*a, x)
	return x
}

func (a *arena) free() {
	for _, x := range *a {
		x.Free()
	}
	*a = (*a)[:0]
}

func warmUp(inst instance, ops int) error {
	c := &client{rng: rand.New(rand.NewSource(-1))}
	for i := 0; i < ops; i++ {
		if err := inst.op(c); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	if c.nWrong > 0 {
		return fmt.Errorf("warm-up: %d wrong outputs, first: %s", c.nWrong, c.wrong[0])
	}
	return nil
}

// ---------------------------------------------------------------------
// stencil-stream: heat-2d Jacobi, one iteration and one flush per op.

type stencil struct {
	*inproc
	n                                      int
	grid, center, north, south, west, east *bohrium.Array
	gridOp                                 bytecode.Operand // the grid through its full view
	init                                   []float64        // grid before the first iteration
	probes                                 []float64        // probe value after each iteration
}

func setupStencil(o options) (instance, error) {
	n, warm := 128, 32
	if o.tiny {
		n, warm = 12, 2
	}
	base, err := newInproc(o.trace)
	if err != nil {
		return nil, err
	}
	s := &stencil{inproc: base, n: n}
	s.grid = s.ctx.Random(uint64(o.seed), n, n)
	s.center = s.grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 1, n-1, 1)
	s.north = s.grid.MustSlice(0, 0, n-2, 1).MustSlice(1, 1, n-1, 1)
	s.south = s.grid.MustSlice(0, 2, n, 1).MustSlice(1, 1, n-1, 1)
	s.west = s.grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 0, n-2, 1)
	s.east = s.grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 2, n, 1)
	s.gridOp = lastOut(s.ctx.PendingProgram())
	if err := s.flush(&client{}); err != nil {
		s.close()
		return nil, err
	}
	if s.init, err = s.grid.Data(); err != nil {
		s.close()
		return nil, err
	}
	if err := warmUp(s, warm); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stencil) op(c *client) error {
	t0 := time.Now()
	next := s.center.Plus(s.north)
	next.Add(s.south).Add(s.west).Add(s.east).MulC(0.2)
	s.center.Assign(next)
	next.Free()
	c.lay.record += time.Since(t0)
	gridOp := func(*bytecode.Program) bytecode.Operand { return s.gridOp }
	v, err := s.result(c, gridOp, func() (float64, error) { return s.grid.At(2, s.n/2) })
	if err != nil {
		return err
	}
	s.probes = append(s.probes, v)
	return nil
}

// verify replays every iteration in plain Go: each op's probe, then the
// whole final grid, must match.
func (s *stencil) verify(c *client) error {
	n := s.n
	g := append([]float64(nil), s.init...)
	next := make([]float64, len(g))
	for it, got := range s.probes {
		copy(next, g)
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				next[i*n+j] = (g[i*n+j] + g[(i-1)*n+j] + g[(i+1)*n+j] + g[i*n+j-1] + g[i*n+j+1]) * 0.2
			}
		}
		g, next = next, g
		if want := g[2*n+n/2]; !closeTo(got, want) {
			c.mismatch("stencil-stream: iteration %d probe %.17g, oracle %.17g", it, got, want)
		}
	}
	final, err := s.grid.Data()
	if err != nil {
		return err
	}
	for i := range final {
		if !closeTo(final[i], g[i]) {
			c.mismatch("stencil-stream: final grid[%d] %.17g, oracle %.17g", i, final[i], g[i])
			break
		}
	}
	return nil
}

func (s *stencil) sizes() []string {
	b := int64(s.n * s.n * 8)
	return []string{fmt.Sprintf("stencil-stream: %dx%d float64 grid (%s) + one interior temporary; working set ~%s",
		s.n, s.n, humanBytes(b), humanBytes(2*b))}
}

// ---------------------------------------------------------------------
// bulk-pricing: Black-Scholes over kept vectors, one pricing per op.

const (
	bsRate  = 0.02
	bsSigma = 0.3
)

type pricing struct {
	*inproc
	n       int
	s, k, t *bohrium.Array
	want    float64 // oracle mean price
	tmp     arena
}

func setupPricing(o options) (instance, error) {
	n, warm := 65536, 16
	if o.tiny {
		n, warm = 512, 2
	}
	base, err := newInproc(o.trace)
	if err != nil {
		return nil, err
	}
	p := &pricing{inproc: base, n: n}
	seed := uint64(o.seed) * 3
	p.s = p.ctx.Random(seed, n)
	p.s.MulC(40).AddC(80) // spot in [80, 120)
	p.k = p.ctx.Random(seed+1, n)
	p.k.MulC(20).AddC(90) // strike in [90, 110)
	p.t = p.ctx.Random(seed+2, n)
	p.t.MulC(1.75).AddC(0.25) // expiry in [0.25, 2) years
	if err := p.flush(&client{}); err != nil {
		p.close()
		return nil, err
	}
	var in [3][]float64
	for i, a := range []*bohrium.Array{p.s, p.k, p.t} {
		if in[i], err = a.Data(); err != nil {
			p.close()
			return nil, err
		}
	}
	p.want = blackScholesMean(in[0], in[1], in[2])
	if err := warmUp(p, warm); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// cnd approximates the standard normal CDF as bench.BlackScholes does:
// Φ(x) ≈ ½(1 + tanh(√(2/π)(x + 0.044715x³))).
func (p *pricing) cnd(x *bohrium.Array) *bohrium.Array {
	x3 := p.tmp.t(x.Power(3)).MulC(0.044715)
	return p.tmp.t(x.Plus(x3)).MulC(math.Sqrt(2 / math.Pi)).Tanh().AddC(1).MulC(0.5)
}

func (p *pricing) op(c *client) error {
	t0 := time.Now()
	a := &p.tmp
	vol := a.t(a.t(p.t.Copy()).Sqrt().TimesC(bsSigma))
	d1 := a.t(p.s.Over(p.k)).Log()
	d1.Add(a.t(p.t.TimesC(bsRate + bsSigma*bsSigma/2))).Div(vol)
	d2 := a.t(d1.Minus(vol))
	n1, n2 := p.cnd(d1), p.cnd(d2)
	disc := a.t(p.t.TimesC(-bsRate)).Exp().Mul(p.k).Mul(n2)
	mean := a.t(p.s.Times(n1)).Sub(disc).Mean().Keep()
	a.free()
	c.lay.record += time.Since(t0)
	v, err := p.result(c, lastOut, mean.Scalar)
	mean.Free()
	if err != nil {
		return err
	}
	if !closeTo(v, p.want) {
		c.mismatch("bulk-pricing: mean price %.17g, oracle %.17g", v, p.want)
	}
	return nil
}

func (p *pricing) verify(*client) error { return nil }

// blackScholesMean is the plain-Go oracle of one pricing.
func blackScholesMean(s, k, t []float64) float64 {
	cnd := func(x float64) float64 {
		x3 := x * x * x * 0.044715
		return (math.Tanh((x+x3)*math.Sqrt(2/math.Pi)) + 1) * 0.5
	}
	sum := 0.0
	for i := range s {
		vol := math.Sqrt(t[i]) * bsSigma
		d1 := (math.Log(s[i]/k[i]) + t[i]*(bsRate+bsSigma*bsSigma/2)) / vol
		d2 := d1 - vol
		disc := math.Exp(t[i]*-bsRate) * k[i] * cnd(d2)
		sum += s[i]*cnd(d1) - disc
	}
	return sum / float64(len(s))
}

func (p *pricing) sizes() []string {
	v := int64(p.n * 8)
	return []string{fmt.Sprintf("bulk-pricing: N=%d float64, 3 kept inputs of %s; ~12 live vectors per op, working set ~%s",
		p.n, humanBytes(v), humanBytes(15*v))}
}

// ---------------------------------------------------------------------
// compile-churn: a zipfian draw over 256 batch structures per op, with
// fresh constants, so the optimizer fires and keys the plan by value.

const churnStructures = 256

type churn struct {
	*inproc
	n    int
	x    *bohrium.Array
	xs   []float64
	zipf *rand.Zipf
	tmp  arena
}

// churnOp is one drawn expression: structure kind and size, and the
// constants drawn for this op.
type churnOp struct {
	kind, size, variant int
	c                   []float64
}

func setupChurn(o options) (instance, error) {
	n, warm := 256, 64
	if o.tiny {
		n, warm = 16, 8
	}
	base, err := newInproc(o.trace)
	if err != nil {
		return nil, err
	}
	w := &churn{inproc: base, n: n}
	w.x = w.ctx.Random(uint64(o.seed)*5+1, n)
	w.x.AddC(0.5) // x in [0.5, 1.5)
	if err := w.flush(&client{}); err != nil {
		w.close()
		return nil, err
	}
	if w.xs, err = w.x.Data(); err != nil {
		w.close()
		return nil, err
	}
	if err := warmUp(w, warm); err != nil {
		w.close()
		return nil, err
	}
	w.zipf = nil // each window's client draws from its own seeded stream
	return w, nil
}

// draw picks a structure by zipfian rank and fresh constants for it. The
// rank is the structure index, so every seed runs the same mix; the seed
// draws the sequence and the constants. Low ranks are the short
// structures of every kind.
// Kinds: 0 add chains (add-merge), 1 power chains x^2..x^31
// (power-expand), 2 repeated subexpressions (common-subexpr), 3 constant
// chains with identities (mul-merge, identity folds).
func (w *churn) draw(rng *rand.Rand) churnOp {
	s := int(w.zipf.Uint64())
	op := churnOp{kind: s % 4}
	p := s / 4 // 0..63
	switch op.kind {
	case 0, 3:
		op.size = 2 + p
	case 1:
		op.size, op.variant = 2+p%30, p/30
	case 2:
		op.size, op.variant = 2+p%16, p/16
	}
	nc := op.size
	if op.kind == 1 || op.kind == 2 {
		nc = 2
	}
	op.c = make([]float64, nc)
	for i := range op.c {
		op.c[i] = 0.5 + rng.Float64()
		if op.kind == 0 {
			op.c[i] -= 1 // add constants in [-0.5, 0.5)
		}
	}
	return op
}

// record emits the op's expression and returns its scalar sum.
func (w *churn) record(op churnOp) *bohrium.Array {
	a := &w.tmp
	var y *bohrium.Array
	switch op.kind {
	case 0:
		y = a.t(w.x.PlusC(op.c[0]))
		for _, c := range op.c[1:] {
			y.AddC(c)
		}
	case 1:
		y = a.t(w.x.Power(float64(op.size)))
		switch op.variant {
		case 0:
			y.MulC(op.c[0])
		case 1:
			y.AddC(op.c[0])
		default:
			y.Add(w.x).MulC(op.c[0])
		}
	case 2:
		term := func() *bohrium.Array { return a.t(w.x.TimesC(op.c[0])).AddC(op.c[1]) }
		y = term()
		for j := 1; j < op.size; j++ {
			t := term()
			switch op.variant {
			case 0, 3:
				y.Add(t)
			case 1:
				y.Sub(t)
			default:
				y.Mul(t)
			}
		}
	case 3:
		y = a.t(w.x.TimesC(op.c[0]))
		for i := 1; i < op.size; i++ {
			switch i % 3 {
			case 0:
				y.MulC(1)
			case 1:
				y.MulC(op.c[i])
			default:
				y.AddC(0)
			}
		}
	}
	sum := y.Sum().Keep()
	a.free()
	return sum
}

// eval is the plain-Go oracle of one drawn expression.
func (w *churn) eval(op churnOp) float64 {
	total := 0.0
	for _, x := range w.xs {
		var y float64
		switch op.kind {
		case 0:
			y = x + op.c[0]
			for _, c := range op.c[1:] {
				y += c
			}
		case 1:
			y = math.Pow(x, float64(op.size))
			switch op.variant {
			case 0:
				y *= op.c[0]
			case 1:
				y += op.c[0]
			default:
				y = (y + x) * op.c[0]
			}
		case 2:
			t := x*op.c[0] + op.c[1]
			y = t
			for j := 1; j < op.size; j++ {
				switch op.variant {
				case 0, 3:
					y += t
				case 1:
					y -= t
				default:
					y *= t
				}
			}
		case 3:
			y = x * op.c[0]
			for i := 1; i < op.size; i++ {
				if i%3 == 1 {
					y *= op.c[i]
				}
			}
		}
		total += y
	}
	return total
}

func (w *churn) op(c *client) error {
	if w.zipf == nil {
		w.zipf = rand.NewZipf(c.rng, 1.1, 1, churnStructures-1)
	}
	t0 := time.Now()
	op := w.draw(c.rng)
	sum := w.record(op)
	c.lay.record += time.Since(t0)
	v, err := w.result(c, lastOut, sum.Scalar)
	sum.Free()
	if err != nil {
		return err
	}
	if want := w.eval(op); !closeTo(v, want) {
		c.mismatch("compile-churn: kind %d size %d variant %d: sum %.17g, oracle %.17g", op.kind, op.size, op.variant, v, want)
	}
	return nil
}

func (w *churn) verify(*client) error { return nil }

func (w *churn) sizes() []string {
	return []string{fmt.Sprintf("compile-churn: N=%d float64 (%s per vector), %d structures vs a %d-entry plan cache; working set ~%s",
		w.n, humanBytes(int64(w.n*8)), churnStructures, 64, humanBytes(int64(8*w.n*8)))}
}
