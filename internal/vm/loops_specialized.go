package vm

import (
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Specialized inner loops for the hottest (op, dtype) pairs: word-wide
// native arithmetic instead of the generic widen-to-class-and-round-back
// bodies of loops.go. They slot in underneath the existing dispatch —
// compileFloatBinaryKernel/compileIntBinaryKernel try these first — so
// every sweep picks them up with no planning changes.
//
// Every specialization here is bit-for-bit identical to the generic body
// it replaces, by construction rather than by tolerance:
//
//   - float32 ⊗ float32 for +,-,*,/: rounding a float64-exact sum,
//     difference, product, or quotient of two float32s to float32 equals
//     the native float32 operation (double rounding is innocuous because
//     float64 carries more than 2·24+2 significand bits).
//   - float32 ⊗ const: the same theorem applies only when the float64
//     constant is exactly a float32, so the form is gated on
//     float64(float32(c)) == c and declines otherwise.
//   - int32/int64 +,-,*: two's-complement wrap is a ring homomorphism
//     under truncation, so narrowing the int64-class result equals native
//     narrow arithmetic for any operands and any constant.
//   - float64 +,-,* unrolled by four: identical arithmetic, fewer loop
//     branches for the memory-bound sweeps the roofline table measures.
//
// The per-kernel differential suite in loops_specialized_test.go pins
// each of these equalities against the generic bodies.
func specializedFloatBinary[T tensor.Elem](op bytecode.Opcode, a, b kArg) (kernel[T], bool) {
	if a.isConst {
		return nil, false
	}
	var k any
	var ok bool
	switch any(*new(T)).(type) {
	case float32:
		k, ok = specFloat32Binary(op, b)
	case float64:
		k, ok = specFloat64Binary(op, b)
	}
	if !ok {
		return nil, false
	}
	return k.(kernel[T]), true
}

// specFloat32Binary compiles the float32 forms of x op b. Constant forms
// decline unless b's value is exactly representable, keeping the
// double-rounding equivalence intact.
func specFloat32Binary(op bytecode.Opcode, b kArg) (kernel[float32], bool) {
	c := float32(b.cf)
	if b.isConst && float64(c) != b.cf {
		return nil, false
	}
	switch op {
	case bytecode.OpAdd:
		if b.isConst {
			return func(d, xs, _ []float32) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = xs[i] + c
				}
			}, true
		}
		return func(d, xs, ys []float32) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = xs[i] + ys[i]
			}
		}, true
	case bytecode.OpSubtract:
		if b.isConst {
			return func(d, xs, _ []float32) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = xs[i] - c
				}
			}, true
		}
		return func(d, xs, ys []float32) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = xs[i] - ys[i]
			}
		}, true
	case bytecode.OpMultiply:
		if b.isConst {
			return func(d, xs, _ []float32) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = xs[i] * c
				}
			}, true
		}
		return func(d, xs, ys []float32) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = xs[i] * ys[i]
			}
		}, true
	case bytecode.OpDivide:
		if b.isConst {
			return func(d, xs, _ []float32) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = xs[i] / c
				}
			}, true
		}
		return func(d, xs, ys []float32) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = xs[i] / ys[i]
			}
		}, true
	}
	return nil, false
}

// specFloat64Binary compiles the unrolled float64 forms. float64 is the
// computation class itself, so no rounding argument is needed — the
// unroll reorders nothing, it only amortizes loop overhead.
func specFloat64Binary(op bytecode.Opcode, b kArg) (kernel[float64], bool) {
	c := b.cf
	switch op {
	case bytecode.OpAdd:
		if b.isConst {
			return func(d, xs, _ []float64) {
				xs = xs[:len(d)]
				i := 0
				for ; i+4 <= len(d); i += 4 {
					d[i] = xs[i] + c
					d[i+1] = xs[i+1] + c
					d[i+2] = xs[i+2] + c
					d[i+3] = xs[i+3] + c
				}
				for ; i < len(d); i++ {
					d[i] = xs[i] + c
				}
			}, true
		}
		return func(d, xs, ys []float64) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			i := 0
			for ; i+4 <= len(d); i += 4 {
				d[i] = xs[i] + ys[i]
				d[i+1] = xs[i+1] + ys[i+1]
				d[i+2] = xs[i+2] + ys[i+2]
				d[i+3] = xs[i+3] + ys[i+3]
			}
			for ; i < len(d); i++ {
				d[i] = xs[i] + ys[i]
			}
		}, true
	case bytecode.OpSubtract:
		if b.isConst {
			return func(d, xs, _ []float64) {
				xs = xs[:len(d)]
				i := 0
				for ; i+4 <= len(d); i += 4 {
					d[i] = xs[i] - c
					d[i+1] = xs[i+1] - c
					d[i+2] = xs[i+2] - c
					d[i+3] = xs[i+3] - c
				}
				for ; i < len(d); i++ {
					d[i] = xs[i] - c
				}
			}, true
		}
		return func(d, xs, ys []float64) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			i := 0
			for ; i+4 <= len(d); i += 4 {
				d[i] = xs[i] - ys[i]
				d[i+1] = xs[i+1] - ys[i+1]
				d[i+2] = xs[i+2] - ys[i+2]
				d[i+3] = xs[i+3] - ys[i+3]
			}
			for ; i < len(d); i++ {
				d[i] = xs[i] - ys[i]
			}
		}, true
	case bytecode.OpMultiply:
		if b.isConst {
			return func(d, xs, _ []float64) {
				xs = xs[:len(d)]
				i := 0
				for ; i+4 <= len(d); i += 4 {
					d[i] = xs[i] * c
					d[i+1] = xs[i+1] * c
					d[i+2] = xs[i+2] * c
					d[i+3] = xs[i+3] * c
				}
				for ; i < len(d); i++ {
					d[i] = xs[i] * c
				}
			}, true
		}
		return func(d, xs, ys []float64) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			i := 0
			for ; i+4 <= len(d); i += 4 {
				d[i] = xs[i] * ys[i]
				d[i+1] = xs[i+1] * ys[i+1]
				d[i+2] = xs[i+2] * ys[i+2]
				d[i+3] = xs[i+3] * ys[i+3]
			}
			for ; i < len(d); i++ {
				d[i] = xs[i] * ys[i]
			}
		}, true
	}
	return nil, false
}

// specializedIntBinary dispatches the native int32/int64 forms.
func specializedIntBinary[T tensor.Elem](op bytecode.Opcode, a, b kArg) (kernel[T], bool) {
	if a.isConst {
		return nil, false
	}
	var k any
	var ok bool
	switch any(*new(T)).(type) {
	case int64:
		k, ok = specIntBinary[int64](op, b)
	case int32:
		k, ok = specIntBinary[int32](op, b)
	}
	if !ok {
		return nil, false
	}
	return k.(kernel[T]), true
}

// specIntBinary compiles native-width +,-,* — wrap-exact at any width, so
// constants need no representability gate: truncating the constant first
// commutes with truncating the int64-class result.
func specIntBinary[T int32 | int64](op bytecode.Opcode, b kArg) (kernel[T], bool) {
	c := T(b.ci)
	switch op {
	case bytecode.OpAdd:
		if b.isConst {
			return func(d, xs, _ []T) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = xs[i] + c
				}
			}, true
		}
		return func(d, xs, ys []T) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = xs[i] + ys[i]
			}
		}, true
	case bytecode.OpSubtract:
		if b.isConst {
			return func(d, xs, _ []T) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = xs[i] - c
				}
			}, true
		}
		return func(d, xs, ys []T) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = xs[i] - ys[i]
			}
		}, true
	case bytecode.OpMultiply:
		if b.isConst {
			return func(d, xs, _ []T) {
				xs = xs[:len(d)]
				for i := range d {
					d[i] = xs[i] * c
				}
			}, true
		}
		return func(d, xs, ys []T) {
			xs, ys = xs[:len(d)], ys[:len(d)]
			for i := range d {
				d[i] = xs[i] * ys[i]
			}
		}, true
	}
	return nil, false
}
