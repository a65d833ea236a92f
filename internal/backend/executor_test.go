package backend

import (
	"errors"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// TestExecutorRunsSubmittedPlans: plans submitted to the background
// executor execute against the backend's registers, Wait drains them, and
// the Pipelined counter counts each one.
func TestExecutorRunsSubmittedPlans(t *testing.T) {
	const n = 64
	want2, want3, _ := runChain(t, "inprocess", Config{}, n, true)
	b, _ := openTest(t, "inprocess", Config{VM: vm.Config{Fusion: true}})
	pl, err := b.Compile(chainProg(n, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(n))
	e := NewExecutor(b, 0, "")
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Submit(pl)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := regVals(t, b, 3, 1); got[0] != want3[0] {
		t.Errorf("pipelined sum = %v, want %v", got[0], want3[0])
	}
	for i, v := range regVals(t, b, 2, n) {
		if v != want2[i] {
			t.Fatalf("a2[%d] = %v, want %v", i, v, want2[i])
		}
	}
	if st := b.Stats(); st.Pipelined != 3 {
		t.Errorf("Pipelined = %d, want 3", st.Pipelined)
	}
}

// TestExecutorQueuedPlansKeepOwnConstants: two structurally identical
// batches with different constant vectors queued back to back each
// execute with their own values. A parametric cache hit under new
// constants is a patched clone (the cached plan is immutable), so a plan
// already in the executor queue is never retouched.
func TestExecutorQueuedPlansKeepOwnConstants(t *testing.T) {
	const n = 64
	b, _ := openTest(t, "inprocess", Config{VM: vm.Config{Fusion: true}})
	prog := chainProg(n, 1)
	pl, err := b.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	b.InsertPlan(prog.Fingerprint(), prog.Constants(), true, pl, nil)
	bindVec(t, b, 0, irregularVals(n))
	e := NewExecutor(b, 0, "")
	defer e.Close()

	var plans []Plan
	for _, c := range []float64{1, 10} {
		q := chainProg(n, c)
		cached, _, ok := b.LookupPlan(q.Fingerprint(), q.Constants(), nil)
		if !ok {
			t.Fatalf("c=%v: lookup missed", c)
		}
		if got := cached.Program().Constants()[0].Float(); got != c {
			t.Fatalf("c=%v: returned plan carries %v", c, got)
		}
		plans = append(plans, cached)
		e.Submit(cached)
	}
	if plans[0] == plans[1] {
		t.Fatal("different constant vectors returned the same plan object")
	}
	if got := plans[0].Program().Constants()[0].Float(); got != 1 {
		t.Errorf("queued plan was retouched: carries %v", got)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	// The last submission used c=10.
	ref, _ := openTest(t, "inprocess", Config{VM: vm.Config{Fusion: true}})
	refPlan, err := ref.Compile(chainProg(n, 10))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, ref, 0, irregularVals(n))
	if err := ref.Execute(refPlan); err != nil {
		t.Fatal(err)
	}
	if got, want := regVals(t, b, 3, 1)[0], regVals(t, ref, 3, 1)[0]; got != want {
		t.Errorf("patched execution sum = %v, want %v", got, want)
	}
}

// failingProg reduces an empty axis with MAX: it compiles, then fails at
// execution (empty MAX has no identity).
func failingProg() *bytecode.Program {
	p := bytecode.NewProgram()
	src := p.NewReg(tensor.Float64, 0)
	dst := p.NewReg(tensor.Float64, 1)
	vEmpty := tensor.NewView(tensor.MustShape(0))
	v1 := tensor.NewView(tensor.MustShape(1))
	p.EmitIdentity(bytecode.Reg(src, vEmpty), bytecode.Const(bytecode.ConstFloat(0)))
	p.EmitReduce(bytecode.OpMaximumReduce, bytecode.Reg(dst, v1), bytecode.Reg(src, vEmpty), 0)
	p.EmitSync(bytecode.Reg(dst, v1))
	p.MarkOutput(dst)
	return p
}

// TestExecutorErrorPoisonsAndSkips: on the in-process backend the first
// failing plan poisons the pipeline — a good plan queued behind it is
// skipped, Wait returns the ErrExec-wrapped error, and the error stays
// sticky through further Waits and Close.
func TestExecutorErrorPoisonsAndSkips(t *testing.T) {
	b, _ := openTest(t, "inprocess", Config{VM: vm.Config{Fusion: true}})
	bad, err := b.Compile(failingProg())
	if err != nil {
		t.Fatal(err)
	}
	good, err := b.Compile(chainProg(64, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(64))
	e := NewExecutor(b, 4, "")

	e.Submit(bad)
	e.Submit(good) // must be skipped
	werr := e.Wait()
	if werr == nil {
		t.Fatal("Wait returned nil for a failing plan")
	}
	if !errors.Is(werr, vm.ErrExec) {
		t.Errorf("pipeline error %v is not an ErrExec chain", werr)
	}
	if st := b.Stats(); st.Pipelined != 1 {
		t.Errorf("Pipelined = %d, want 1 (queued plan after the failure must be skipped)", st.Pipelined)
	}
	if again := e.Wait(); again == nil || again.Error() != werr.Error() {
		t.Errorf("sticky error lost: %v", again)
	}
	if cerr := e.Close(); cerr == nil || cerr.Error() != werr.Error() {
		t.Errorf("Close error = %v, want the pipeline error", cerr)
	}
}

// TestExecutorCloseIdempotent: Close twice is safe and keeps returning
// the same (nil) error.
func TestExecutorCloseIdempotent(t *testing.T) {
	b, _ := openTest(t, "inprocess", Config{})
	e := NewExecutor(b, 0, "")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosExecutorPanicBecomesStickyError pins async panic containment
// at the executor seam: a panic while the background executor runs a
// queued plan becomes the pipeline's sticky ErrExec-wrapped error —
// reported by every Wait and by Close — instead of killing the process.
func TestChaosExecutorPanicBecomesStickyError(t *testing.T) {
	b, _ := openTest(t, "inprocess", Config{VM: vm.Config{Fusion: true, FaultLabel: "sess"}})
	pl, err := b.Compile(chainProg(64, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(64))
	e := NewExecutor(b, 2, "sess")

	disarm := faultinject.Arm(faultinject.WorkerPanic, faultinject.Fault{Label: "sess", Times: 1})
	defer disarm()
	e.Submit(pl)
	werr := e.Wait()
	if !errors.Is(werr, vm.ErrExec) {
		t.Fatalf("wait after injected panic: %v, want an ErrExec chain", werr)
	}
	if !strings.Contains(werr.Error(), "panic during pipelined execution") {
		t.Fatalf("pipeline error does not name the recovered panic: %v", werr)
	}
	if again := e.Wait(); again == nil || again.Error() != werr.Error() {
		t.Fatalf("sticky error changed across waits: %v then %v", werr, again)
	}
	if cerr := e.Close(); cerr == nil || cerr.Error() != werr.Error() {
		t.Fatalf("close lost the sticky error: %v", cerr)
	}
}
