package vm

import (
	"math"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Compiled kernels for contiguous operands of any storage dtype.
// compileKernel turns one instruction into a slice kernel with the
// arithmetic inlined; every sweep (sweep.go) calls it per cache-sized
// block — the interpreted equivalent of the kernel the paper's OpenCL
// backend would JIT, instantiated per element type through Go generics.
//
// Semantics are pinned to the interpreted accessor path: float dtypes
// compute in the float64 class and convert back through the storage type
// (a no-op for float64; innocuous double rounding for float32 +,-,*,/),
// integer dtypes compute in the exact int64 class (falling back to the
// float class for ops with no integer kernel, exactly as slowElementwise
// does), and bool stores normalize to 0/1 the way Buffer.Set/SetInt do.
// This keeps fused execution bit-identical to the interpreter for every
// dtype.

// kernel is one instruction's arithmetic over equal-length windows of
// its storage type: d = op(x, y). Constant operands are bound into the
// kernel when it is compiled and arrive as nil windows, as does y for a
// unary op. A kernel captures nothing but constants, so one kernel
// serves every block, worker and buffer binding of a sweep.
type kernel[T tensor.Elem] func(d, x, y []T)

// kArg describes one kernel operand at compile time: an array window
// supplied per call, or a constant carried in both computation classes
// (cf for the float64 class, ci for the exact int64 class — mirroring
// how resolveSources materializes constants for the accessor path).
type kArg struct {
	isConst bool
	cf      float64
	ci      int64
}

// compileKernel compiles op over operands args for storage dtype dt, or
// reports false when no compiled form exists.
func compileKernel[T tensor.Elem](dt tensor.DType, op bytecode.Opcode, args []kArg) (kernel[T], bool) {
	switch {
	case dt == tensor.Bool:
		return compileBoolKernel[T](op, args)
	case dt.IsFloat():
		switch len(args) {
		case 1:
			return compileFloatUnaryKernel[T](op, args[0])
		case 2:
			return compileFloatBinaryKernel[T](op, args[0], args[1])
		}
	default:
		switch len(args) {
		case 1:
			return compileIntUnaryKernel[T](op, args[0])
		case 2:
			return compileIntBinaryKernel[T](op, args[0], args[1])
		}
	}
	return nil, false
}

// fillKernel writes the constant c across the window.
func fillKernel[T tensor.Elem](c T) kernel[T] {
	return func(d, _, _ []T) {
		for i := range d {
			d[i] = c
		}
	}
}

func compileFloatUnaryKernel[T tensor.Elem](op bytecode.Opcode, s kArg) (kernel[T], bool) {
	if op == bytecode.OpIdentity {
		if s.isConst {
			return fillKernel(T(s.cf)), true
		}
		return func(d, xs, _ []T) { copy(d, xs) }, true
	}
	k, ok := floatUnaryKernel(op)
	if !ok {
		return nil, false
	}
	if s.isConst {
		return fillKernel(T(k(s.cf))), true
	}
	return func(d, xs, _ []T) {
		xs = xs[:len(d)]
		for i := range d {
			d[i] = T(k(float64(xs[i])))
		}
	}, true
}

func compileFloatBinaryKernel[T tensor.Elem](op bytecode.Opcode, a, b kArg) (kernel[T], bool) {
	// Specialized word-wide/unrolled kernels first; each declines unless
	// its bit-for-bit equivalence argument holds (loops_specialized.go).
	if k, ok := specializedFloatBinary[T](op, a, b); ok {
		return k, true
	}
	// Hand-inlined forms for the memory-bound sweeps the paper's
	// transformations count.
	if !a.isConst {
		c := b.cf
		switch op {
		case bytecode.OpAdd:
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(float64(xs[i]) + c)
					}
				}, true
			}
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(float64(xs[i]) + float64(ys[i]))
				}
			}, true
		case bytecode.OpSubtract:
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(float64(xs[i]) - c)
					}
				}, true
			}
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(float64(xs[i]) - float64(ys[i]))
				}
			}, true
		case bytecode.OpMultiply:
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(float64(xs[i]) * c)
					}
				}, true
			}
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(float64(xs[i]) * float64(ys[i]))
				}
			}, true
		case bytecode.OpDivide:
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(float64(xs[i]) / c)
					}
				}, true
			}
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(float64(xs[i]) / float64(ys[i]))
				}
			}, true
		case bytecode.OpPower:
			// The expensive sweep power expansion eliminates: keep it
			// honest (a real math.Pow per element, as the OpenCL
			// backend's pow()).
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(math.Pow(float64(xs[i]), c))
					}
				}, true
			}
		}
	}

	k, ok := floatBinaryKernel(op)
	if !ok {
		return nil, false
	}
	switch {
	case a.isConst && b.isConst:
		return fillKernel(T(k(a.cf, b.cf))), true
	case a.isConst:
		c := a.cf
		// A constant left operand arrives as a nil x: the array operand
		// is the y window.
		return func(d, _, ys []T) {
			ys = ys[:len(d)]
			for i := range d {
				d[i] = T(k(c, float64(ys[i])))
			}
		}, true
	case b.isConst:
		c := b.cf
		return func(d, xs, _ []T) {
			xs = xs[:len(d)]
			for i := range d {
				d[i] = T(k(float64(xs[i]), c))
			}
		}, true
	default:
		return func(d, xs, ys []T) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = T(k(float64(xs[i]), float64(ys[i])))
			}
		}, true
	}
}

func compileIntUnaryKernel[T tensor.Elem](op bytecode.Opcode, s kArg) (kernel[T], bool) {
	if k, ok := intUnaryKernel(op); ok {
		if s.isConst {
			return fillKernel(T(k(s.ci))), true
		}
		return func(d, xs, _ []T) {
			xs = xs[:len(d)]
			for i := range d {
				d[i] = T(k(int64(xs[i])))
			}
		}, true
	}
	// Transcendentals on integers compute in the float class and truncate
	// back through the storage type, matching slowUnaryFloat + Buffer.Set.
	k, ok := floatUnaryKernel(op)
	if !ok {
		return nil, false
	}
	if s.isConst {
		return fillKernel(T(k(s.cf))), true
	}
	return func(d, xs, _ []T) {
		xs = xs[:len(d)]
		for i := range d {
			d[i] = T(k(float64(xs[i])))
		}
	}, true
}

func compileIntBinaryKernel[T tensor.Elem](op bytecode.Opcode, a, b kArg) (kernel[T], bool) {
	// Specialized native-width kernels first (loops_specialized.go).
	if k, ok := specializedIntBinary[T](op, a, b); ok {
		return k, true
	}
	// Hand-inlined wrap-exact forms: widening to int64 and truncating back
	// through T is identical to native T arithmetic for +,-,* and matches
	// the interpreted int class for every width.
	if !a.isConst {
		c := b.ci
		switch op {
		case bytecode.OpAdd:
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(int64(xs[i]) + c)
					}
				}, true
			}
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(int64(xs[i]) + int64(ys[i]))
				}
			}, true
		case bytecode.OpSubtract:
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(int64(xs[i]) - c)
					}
				}, true
			}
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(int64(xs[i]) - int64(ys[i]))
				}
			}, true
		case bytecode.OpMultiply:
			if b.isConst {
				return func(d, xs, _ []T) {
					xs = xs[:len(d)]
					for i := range d {
						d[i] = T(int64(xs[i]) * c)
					}
				}, true
			}
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(int64(xs[i]) * int64(ys[i]))
				}
			}, true
		}
	}
	if k, ok := intBinaryKernel(op); ok {
		switch {
		case a.isConst && b.isConst:
			return fillKernel(T(k(a.ci, b.ci))), true
		case a.isConst:
			c := a.ci
			return func(d, _, ys []T) {
				ys = ys[:len(d)]
				for i := range d {
					d[i] = T(k(c, int64(ys[i])))
				}
			}, true
		case b.isConst:
			c := b.ci
			return func(d, xs, _ []T) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = T(k(int64(xs[i]), c))
				}
			}, true
		default:
			return func(d, xs, ys []T) {
				xs, ys = xs[:len(d)], ys[:len(d)]
				for i := range d {
					d[i] = T(k(int64(xs[i]), int64(ys[i])))
				}
			}, true
		}
	}
	// Ops with no integer kernel (ARCTAN2) compute in the float class and
	// truncate back, as the interpreted path does.
	k, ok := floatBinaryKernel(op)
	if !ok {
		return nil, false
	}
	switch {
	case a.isConst && b.isConst:
		return fillKernel(T(k(a.cf, b.cf))), true
	case a.isConst:
		c := a.cf
		return func(d, _, ys []T) {
			ys = ys[:len(d)]
			for i := range d {
				d[i] = T(k(c, float64(ys[i])))
			}
		}, true
	case b.isConst:
		c := b.cf
		return func(d, xs, _ []T) {
			xs = xs[:len(d)]
			for i := range d {
				d[i] = T(k(float64(xs[i]), c))
			}
		}, true
	default:
		return func(d, xs, ys []T) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = T(k(float64(xs[i]), float64(ys[i])))
			}
		}, true
	}
}

// compileBoolKernel handles dtype bool (uint8 storage): values compute
// in the int class where a kernel exists (float class otherwise) and
// every store normalizes to 0/1 exactly as Buffer.Set/SetInt do.
func compileBoolKernel[T tensor.Elem](op bytecode.Opcode, args []kArg) (kernel[T], bool) {
	switch len(args) {
	case 1:
		s := args[0]
		if k, ok := intUnaryKernel(op); ok {
			if s.isConst {
				return fillKernel(b01[T](k(s.ci) != 0)), true
			}
			return func(d, xs, _ []T) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = b01[T](k(int64(xs[i])) != 0)
				}
			}, true
		}
		k, ok := floatUnaryKernel(op)
		if !ok {
			return nil, false
		}
		if s.isConst {
			return fillKernel(b01[T](k(s.cf) != 0)), true
		}
		return func(d, xs, _ []T) {
			xs = xs[:len(d)]
			for i := range d {
				d[i] = b01[T](k(float64(xs[i])) != 0)
			}
		}, true
	case 2:
		a, b := args[0], args[1]
		if k, ok := intBinaryKernel(op); ok {
			la, lb := intLoad[T](a), intLoad[T](b)
			return func(d, xs, ys []T) {
				for i := range d {
					d[i] = b01[T](k(la(xs, i), lb(ys, i)) != 0)
				}
			}, true
		}
		k, ok := floatBinaryKernel(op)
		if !ok {
			return nil, false
		}
		la, lb := floatLoad[T](a), floatLoad[T](b)
		return func(d, xs, ys []T) {
			for i := range d {
				d[i] = b01[T](k(la(xs, i), lb(ys, i)) != 0)
			}
		}, true
	}
	return nil, false
}

// b01 is the bool-normalized store value.
func b01[T tensor.Elem](v bool) T {
	if v {
		return 1
	}
	return 0
}

// intLoad/floatLoad build per-index class loaders for an operand, used by
// the (cold) bool path where per-element closure calls are acceptable.
func intLoad[T tensor.Elem](s kArg) func(w []T, i int) int64 {
	if s.isConst {
		c := s.ci
		return func([]T, int) int64 { return c }
	}
	return func(w []T, i int) int64 { return int64(w[i]) }
}

func floatLoad[T tensor.Elem](s kArg) func(w []T, i int) float64 {
	if s.isConst {
		c := s.cf
		return func([]T, int) float64 { return c }
	}
	return func(w []T, i int) float64 { return float64(w[i]) }
}
