package bytecode

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
)

// Fingerprint is a canonical digest of a program's *structure*: opcodes,
// reduction axes, register operands (id, declared dtype and base length,
// view offset/shape/strides), constant positions and dtypes, and the
// input/output role of every referenced register. Constant *values* and
// buffer contents are excluded, so two batches that differ only in their
// immediates share a fingerprint — the property the plan cache keys on
// (see ARCHITECTURE.md, "Fingerprint legality rules"). Declarations no
// instruction references are excluded too: unrelated arrays living in
// the same session must not perturb the key of an iterative batch.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint's leading bytes for logs and tests.
func (f Fingerprint) String() string { return fmt.Sprintf("%x", f[:8]) }

// Fingerprint computes the structural digest of the program. Programs
// that compare equal under it are interchangeable for compilation
// purposes up to constant values: same instruction sequence, same
// register declarations and views at every operand, same input/output
// roles over the registers the instructions touch.
//
// The digest is SHA-256 over a stream of little-endian 64-bit words. The
// words are staged in a stack chunk that is handed to the hash whenever
// the next instruction might not fit, so the hash sees a few large
// writes and the stream is never buffered whole.
func (p *Program) Fingerprint() Fingerprint {
	h := sha256.New()
	var chunk [2048]byte
	buf := chunk[:0]
	var stack [256]RegID
	used := stack[:0]
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if len(buf) > len(chunk)-fpInstrBytes {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = putWord(buf, int64(in.Op))
		buf = putWord(buf, int64(in.Axis))
		for _, o := range [...]*Operand{&in.Out, &in.In1, &in.In2} {
			buf = putWord(buf, int64(o.Kind))
			switch o.Kind {
			case OperandReg:
				used = append(used, o.Reg)
				ri, _ := p.Reg(o.Reg)
				buf = putWord(buf, int64(o.Reg))
				buf = putWord(buf, int64(ri.DType))
				buf = putWord(buf, int64(ri.Len))
				buf = putWord(buf, int64(o.View.Offset))
				buf = putWord(buf, int64(len(o.View.Shape)))
				for _, d := range o.View.Shape {
					buf = putWord(buf, int64(d))
				}
				for _, s := range o.View.Strides {
					buf = putWord(buf, int64(s))
				}
			case OperandConst:
				// Dtype keys the cache (it selects the computation class);
				// the value is a plan parameter and stays out of the digest.
				buf = putWord(buf, int64(o.Const.DType))
			}
		}
	}
	// Roles of the referenced registers, in register order: whether each
	// is bound before execution and whether it is externally observable.
	// Both gate rewrites (liveness, DCE), so both key the cache.
	slices.Sort(used)
	used = slices.Compact(used)
	buf = putWord(buf, int64(len(used)))
	for _, r := range used {
		if len(buf) > len(chunk)-16 {
			h.Write(buf)
			buf = buf[:0]
		}
		role := int64(0)
		if p.IsInput(r) {
			role |= 1
		}
		if p.IsOutput(r) {
			role |= 2
		}
		buf = putWord(buf, int64(r))
		buf = putWord(buf, role)
	}
	h.Write(buf)
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// fpInstrBytes is the stream length of an instruction whose three
// operands are 4-D views. Longer instructions still hash correctly: the
// chunk then spills to the heap.
const fpInstrBytes = 8 * (2 + 3*(6+2*4))

// putWord appends v to the fingerprint stream as a little-endian word.
func putWord(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// SequenceFingerprint combines two batch fingerprints into the identity
// of the ordered pair (a, b). The front end keys its cross-plan
// predictor on it: when the pair fingerprint of consecutive flushes
// recurs, the stream is in a steady (A, B, A, B, …) state and the next
// A-batch is a candidate for deferral into a combined A+B submission
// (see ARCHITECTURE.md, "Cross-plan fusion"). The combinator is a plain
// digest over a‖b, so it inherits the structural-only semantics of
// Fingerprint: constant values do not perturb sequence identity.
func SequenceFingerprint(a, b Fingerprint) Fingerprint {
	h := sha256.New()
	h.Write(a[:])
	h.Write(b[:])
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// Constants collects every constant operand in instruction order (In1
// before In2). The slice is the batch's "constant vector": together with
// the Fingerprint it fully identifies the batch, and for plans compiled
// from rewrite-free batches it is the parameter list SetConstants patches.
func (p *Program) Constants() []Constant {
	n := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.In1.IsConst() {
			n++
		}
		if in.In2.IsConst() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Constant, 0, n)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.In1.IsConst() {
			out = append(out, in.In1.Const)
		}
		if in.In2.IsConst() {
			out = append(out, in.In2.Const)
		}
	}
	return out
}

// SetConstants overwrites the program's constant operands with vals, in
// the same order Constants collects them. It requires an exact positional
// and dtype match — the caller guarantees structural identity via the
// Fingerprint — and reports whether any value actually changed.
func (p *Program) SetConstants(vals []Constant) (changed bool, err error) {
	next := 0
	set := func(o *Operand) error {
		if !o.IsConst() {
			return nil
		}
		if next >= len(vals) {
			return fmt.Errorf("bytecode: %d constants supplied, program has more", len(vals))
		}
		v := vals[next]
		next++
		if v.DType != o.Const.DType {
			return fmt.Errorf("bytecode: constant %d dtype %s, program wants %s", next-1, v.DType, o.Const.DType)
		}
		if !o.Const.Equal(v) {
			o.Const = v
			changed = true
		}
		return nil
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := set(&in.In1); err != nil {
			return changed, err
		}
		if err := set(&in.In2); err != nil {
			return changed, err
		}
	}
	if next != len(vals) {
		return changed, fmt.Errorf("bytecode: %d constants supplied, program has %d", len(vals), next)
	}
	return changed, nil
}
