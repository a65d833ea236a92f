package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/linalg"
	"bohrium/internal/tensor"
)

// execExtension dispatches the linear-algebra extension methods, packing
// operand views into dense workspaces the way a LAPACK-backed extension
// would repack before dgetrf/dgetrs.
func (m *Machine) execExtension(p *bytecode.Program, in *bytecode.Instruction) error {
	outBuf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	out := tensor.Tensor{Buf: outBuf, View: in.Out.View}

	pack := func(o bytecode.Operand) (linalg.Dense, error) {
		buf, err := m.regs.input(p, o.Reg)
		if err != nil {
			return linalg.Dense{}, err
		}
		return linalg.FromTensor(tensor.Tensor{Buf: buf, View: o.View})
	}

	m.stats.instructions.Add(1)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(in.Out.View.Size()))

	switch in.Op {
	case bytecode.OpMatmul:
		a, err := pack(in.In1)
		if err != nil {
			return err
		}
		b, err := pack(in.In2)
		if err != nil {
			return err
		}
		return linalg.MatMulDense(a, b).ToTensor(out)

	case bytecode.OpLU:
		a, err := pack(in.In1)
		if err != nil {
			return err
		}
		lu, err := linalg.Factor(a)
		if err != nil {
			return err
		}
		// The packed factors of P·A; the permutation stays internal to
		// the extension (byte-code has a single result operand).
		return lu.Packed.ToTensor(out)

	case bytecode.OpSolve:
		a, err := pack(in.In1)
		if err != nil {
			return err
		}
		b, err := pack(in.In2)
		if err != nil {
			return err
		}
		x, err := linalg.Solve(a, b)
		if err != nil {
			return err
		}
		return x.ToTensor(out)

	case bytecode.OpInverse:
		a, err := pack(in.In1)
		if err != nil {
			return err
		}
		inv, err := linalg.Inverse(a)
		if err != nil {
			return err
		}
		return inv.ToTensor(out)

	default:
		return fmt.Errorf("unknown extension method %s", in.Op)
	}
}
